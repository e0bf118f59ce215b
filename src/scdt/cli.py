"""Command-line interface.

Subcommands: ``transform`` (signal CSV to transform JSON), ``inverse``
(transform JSON back to a signal CSV), ``distance`` (transport distance
between two signals), ``generate`` (write a synthetic labeled dataset), and
``classify-demo`` (run the linear-separability experiment and dump a report
plus plot data).

Exit codes: 0 success; 2 parse/configuration error; 3 invalid reference
measure; 4 singularity or grid-range violation on inversion, or density atoms
that floating point cannot hold; 5 metric domain violation.  Diagnostics go to
stderr; stdout carries only requested values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional, Union

from .classify import DEFAULT_LDA_LAMBDA, _lda_lambda, run_experiment
from .errors import (
    InvalidReferenceError, MetricDomainError, ParseError, RangeError, SingularityError,
)
from .fileio import (
    _read_json_object,
    parse_reference,
    read_signal_csv,
    read_transform_json,
    reference_from_dict,
    write_signal_csv,
    write_transform_json,
)
from .genmodel import GenConfig, generate_dataset
from .measures import ReferenceMeasure, measure_from_density, rebin
from .metrics import d_s, d_w2, w2
from .steps import _Frozen
from .transform import DEFAULT_N_QUANTILES, TransformConfig, scdt_forward, scdt_inverse

__all__ = ["main", "read_experiment_config", "ExperimentConfig", "seed_override_from_env"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_REFERENCE = 3
EXIT_SINGULARITY = 4
EXIT_METRIC = 5

#: The exit code of each error ``main`` reports: the first row that matches.
_EXIT_CODES = (
    (InvalidReferenceError, EXIT_REFERENCE),
    ((SingularityError, RangeError), EXIT_SINGULARITY),
    (MetricDomainError, EXIT_METRIC),
    ((ValueError, OSError), EXIT_PARSE),  # every ScdtError is a ValueError
    (MemoryError, EXIT_PARSE),  # a size no array can hold
)


# --- experiment configuration ----------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentConfig(_Frozen):
    """A generation config plus the transform/classifier settings that ride
    along with it in experiment config files."""

    gen: GenConfig
    transform: TransformConfig
    lda_lambda: float = DEFAULT_LDA_LAMBDA

    def __post_init__(self) -> None:
        self._store(lda_lambda=_lda_lambda(self.lda_lambda))


#: In GenConfig's field order, the order in which it checks them, so the key an error
#: names does not depend on the hash seed.
_GEN_KEYS = tuple(f.name for f in dataclasses.fields(GenConfig))
_EXTRA_KEYS = {"n_quantiles", "reference", "lda_lambda"}


def read_experiment_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    """Read a JSON experiment config; every key is optional and defaults to
    the standard protocol.  Unknown keys are rejected; each config checks its
    own keys, and its ``ValueError`` becomes a :class:`ParseError` naming the file."""
    obj = _read_json_object(path)
    unknown = set(obj).difference(_GEN_KEYS, _EXTRA_KEYS)
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        gen = GenConfig(**{k: obj[k] for k in _GEN_KEYS if k in obj})
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    reference = (
        parse_reference(obj["reference"])
        if isinstance(obj.get("reference"), str)
        else reference_from_dict(obj["reference"])
        if "reference" in obj
        else ReferenceMeasure.uniform()
    )
    try:
        transform = TransformConfig(reference, obj.get("n_quantiles", DEFAULT_N_QUANTILES))
        return ExperimentConfig(gen, transform, obj.get("lda_lambda", DEFAULT_LDA_LAMBDA))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def seed_override_from_env(env: Optional[Dict[str, str]] = None) -> Optional[int]:
    """The SCDT_SEED environment override, if set (empty string means unset)."""
    env = os.environ if env is None else env
    raw = env.get("SCDT_SEED", "")
    if raw == "":
        return None
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ParseError(f"SCDT_SEED must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise ParseError(f"SCDT_SEED: seed must be a nonnegative whole number, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdt",
        description="Signed cumulative distribution transforms of 1-D signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a signal CSV into a transform JSON")
    p.add_argument("--input", required=True, help="signal CSV (columns t,value)")
    p.add_argument("--output", required=True, help="transform JSON to write")
    p.add_argument(
        "--ref",
        default="uniform:0,1",
        help="reference measure: uniform:a,b or pwl:x0,y0;x1,y1;... (default uniform:0,1)",
    )
    p.add_argument("--quantiles", type=int, default=DEFAULT_N_QUANTILES, help="quantile grid size")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("inverse", help="invert a transform JSON back to a signal CSV")
    p.add_argument("--input", required=True, help="transform JSON")
    p.add_argument("--output", required=True, help="signal CSV to write")
    p.add_argument("--grid", required=True, help="output grid as t0,t1,N")
    p.set_defaults(run=_cmd_inverse)

    p = sub.add_parser("distance", help="transport distance between two signals")
    p.add_argument("--a", required=True, help="first signal CSV")
    p.add_argument("--b", required=True, help="second signal CSV")
    p.add_argument("--metric", choices=("w2", "dw2", "ds"), default="ds")
    p.add_argument("--quantiles", type=int, default=DEFAULT_N_QUANTILES)
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("generate", help="write a synthetic labeled dataset")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--outdir", required=True, help="directory for signal CSVs")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("classify-demo", help="run the linear-separability experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--report", required=True, help="report JSON to write")
    p.add_argument("--plots", required=True, help="plot-data CSV to write")
    p.set_defaults(run=_cmd_classify_demo)
    return parser


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise ParseError(f"--grid must be t0,t1,N, got {spec!r}")
    try:
        t0, t1, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"--grid must be t0,t1,N, got {spec!r}") from exc
    return t0, t1, n


def _cmd_transform(args: argparse.Namespace) -> int:
    density = read_signal_csv(args.input)
    cfg = TransformConfig(parse_reference(args.ref), args.quantiles)
    result = scdt_forward(measure_from_density(density), cfg)
    write_transform_json(args.output, result, cfg)
    return EXIT_OK


def _cmd_inverse(args: argparse.Namespace) -> int:
    result, cfg = read_transform_json(args.input)
    t0, t1, n = _parse_grid(args.grid)
    measure = scdt_inverse(result, cfg)
    density = rebin(measure, t0, t1, n)
    write_signal_csv(args.output, density)
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    sa = measure_from_density(read_signal_csv(args.a))
    sb = measure_from_density(read_signal_csv(args.b))
    if args.metric == "ds":
        value = d_s(sa, sb, args.quantiles).value
    else:
        for name, s in (("a", sa), ("b", sb)):
            if not s.negative_part.is_zero:
                raise MetricDomainError(
                    f"metric {args.metric} requires a nonnegative signal, but "
                    f"--{name} has negative density values"
                )
        if args.metric == "dw2":
            value = d_w2(sa.positive_part, sb.positive_part, args.quantiles).value
        else:
            value = w2(sa.positive_part, sb.positive_part, args.quantiles)
    print(repr(value))
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    config = read_experiment_config(args.config)
    gen = config.gen
    override = seed_override_from_env()
    if override is not None:
        gen = dataclasses.replace(gen, seed=override)
    signals = generate_dataset(gen)
    os.makedirs(args.outdir, exist_ok=True)
    for i, (label, density) in enumerate(signals):
        name = f"signal_{i:04d}_class{label}.csv"
        write_signal_csv(os.path.join(args.outdir, name), density)
    print(f"wrote {len(signals)} signals to {args.outdir}", file=sys.stderr)
    return EXIT_OK


def _cmd_classify_demo(args: argparse.Namespace) -> int:
    config = read_experiment_config(args.config)
    seed = seed_override_from_env()
    report = run_experiment(
        config.gen, config.transform, config.lda_lambda, seed=seed
    )
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(args.plots, "w", encoding="utf-8", newline="") as fh:
        fh.write("space,class,u,v\n")
        for space, proj in (
            ("raw_signal", report.projections_signal),
            ("scdt", report.projections_scdt),
        ):
            for label, (u, v) in zip(report.test_labels, proj):
                fh.write(f"{space},{int(label)},{float(u)!r},{float(v)!r}\n")
    print(f"accuracy raw_signal {report.accuracy_signal_space:.4f}")
    print(f"accuracy scdt {report.accuracy_scdt_space:.4f}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
