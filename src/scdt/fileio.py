"""File formats: signal CSV, transform JSON, reference specs.

Floats are serialized with Python's shortest round-trip representation, so
parse(serialize(x)) recovers x bit for bit; infinities are written as the
strings "inf" / "-inf" because JSON has no literal for them.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from .errors import InvalidReferenceError, ParseError
from .measures import GridDensity, ReferenceMeasure
from .transform import CdtResult, ScdtResult, TransformConfig

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "read_transform_json",
    "write_transform_json",
    "parse_reference",
    "reference_to_dict",
    "reference_from_dict",
]

#: Relative tolerance on uniform time spacing in signal files.
SPACING_RTOL = 1e-9

TRANSFORM_FILE_VERSION = 1


# --- float encoding ---------------------------------------------------------


def _encode_float(x: float) -> Union[float, str]:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_float(v: Any, what: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ParseError(f"{what}: unrecognized value {v!r}")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ParseError(f"{what}: expected a number, got {v!r}")


def _decode_array(v: Any, what: str) -> np.ndarray:
    if not isinstance(v, list):
        raise ParseError(f"{what}: expected an array")
    return np.array([_decode_float(x, what) for x in v], dtype=float)


def _read_json_object(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The JSON object in the file at ``path``, else :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


# --- signal CSV -------------------------------------------------------------


def write_signal_csv(path: Union[str, os.PathLike], density: GridDensity) -> None:
    """Write bin centers and density values as a two-column CSV."""
    centers = density.bin_centers()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(centers, density.samples):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def read_signal_csv(path: Union[str, os.PathLike]) -> GridDensity:
    """Read a two-column ``t,value`` CSV with uniformly spaced, strictly
    increasing ``t`` (an optional header line is skipped); the samples are
    interpreted as a density on bins centered at the ``t`` values."""
    ts: List[float] = []
    vs: List[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected two comma-separated columns")
                try:
                    t, v = float(parts[0]), float(parts[1])
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    raise ParseError(f"{path}:{lineno}: could not parse {line!r}") from None
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ParseError(f"{path}:{lineno}: non-finite entry")
                ts.append(t)
                vs.append(v)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(ts) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    dt = (ts[-1] - ts[0]) / (len(ts) - 1)
    t0, t1 = ts[0] - dt / 2, ts[-1] + dt / 2
    if dt <= 0:
        raise ParseError(f"{path}: t column must be strictly increasing")
    if not math.isfinite(t1 - t0):
        raise ParseError(f"{path}: the bins of t from {ts[0]!r} to {ts[-1]!r} span "
                         f"[{t0!r}, {t1!r}], which overflows float64")
    with np.errstate(over="ignore"):  # a gap between unsorted t may overflow
        if np.max(np.abs(np.diff(ts) - dt)) > SPACING_RTOL * abs(dt):
            raise ParseError(f"{path}: t values are not uniformly spaced")
    return GridDensity(t0, t1, np.array(vs))


# --- reference measures -----------------------------------------------------


def parse_reference(spec: str) -> ReferenceMeasure:
    """Parse a reference spec: ``uniform:a,b`` or ``pwl:x0,y0;x1,y1;...``
    (knots of the CDF, which must be strictly increasing with y0 = 0)."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "uniform":
            a_str, b_str = rest.split(",")
            return ReferenceMeasure.uniform(float(a_str), float(b_str))
        if kind == "pwl":
            knots = [tuple(float(f) for f in pair.split(",")) for pair in rest.split(";")]
            if any(len(k) != 2 for k in knots):
                raise ValueError("each knot needs exactly x,y")
            xs = np.array([k[0] for k in knots])
            ys = np.array([k[1] for k in knots])
            return ReferenceMeasure(xs, ys)
        raise ValueError(f"unknown reference kind {kind!r}")
    except InvalidReferenceError:
        raise
    except ValueError as exc:
        raise InvalidReferenceError(f"bad reference spec {spec!r}: {exc}") from exc


def reference_to_dict(ref: ReferenceMeasure) -> Dict[str, Any]:
    return {"type": "pwl", "x": [float(x) for x in ref.xs], "y": [float(y) for y in ref.ys]}


def reference_from_dict(obj: Any) -> ReferenceMeasure:
    if not isinstance(obj, dict) or obj.get("type") != "pwl":
        raise ParseError("reference: expected an object with type 'pwl'")
    xs = _decode_array(obj.get("x"), "reference.x")
    ys = _decode_array(obj.get("y"), "reference.y")
    return ReferenceMeasure(xs, ys)


# --- transform JSON ---------------------------------------------------------


def write_transform_json(
    path: Union[str, os.PathLike], t: ScdtResult, cfg: TransformConfig
) -> None:
    obj = {
        "quantiles": [float(q) for q in cfg.quantiles],
        "plus": _part_to_dict(t.plus),
        "minus": _part_to_dict(t.minus),
        "reference": reference_to_dict(cfg.reference),
        "version": TRANSFORM_FILE_VERSION,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _part_to_dict(part: CdtResult) -> Dict[str, Any]:
    return {
        "samples": [_encode_float(s) for s in part.samples],
        "mass": float(part.mass),
    }


def _part_from_dict(obj: Any, n_quantiles: int, what: str) -> CdtResult:
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected an object")
    samples = _decode_array(obj.get("samples"), f"{what}.samples")
    if samples.size != n_quantiles:
        raise ParseError(
            f"{what}.samples has length {samples.size}, expected {n_quantiles}"
        )
    mass = _decode_float(obj.get("mass"), f"{what}.mass")
    try:
        return CdtResult(samples, mass)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def read_transform_json(
    path: Union[str, os.PathLike]
) -> Tuple[ScdtResult, TransformConfig]:
    obj = _read_json_object(path)
    version = obj.get("version")
    if isinstance(version, bool) or version != TRANSFORM_FILE_VERSION:
        raise ParseError(f"{path}: unsupported version {version!r}")
    quantiles = _decode_array(obj.get("quantiles"), "quantiles")
    m = quantiles.size
    if m < 2:
        raise ParseError(f"{path}: need at least two quantile levels")
    cfg = TransformConfig(reference=reference_from_dict(obj.get("reference")), n_quantiles=m)
    if not np.all(np.abs(quantiles - cfg.quantiles) <= 1e-12):
        raise ParseError(f"{path}: quantile grid is not the midpoint grid")
    result = ScdtResult(
        _part_from_dict(obj.get("plus"), m, "plus"),
        _part_from_dict(obj.get("minus"), m, "minus"),
    )
    return result, cfg
