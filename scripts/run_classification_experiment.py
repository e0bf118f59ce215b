#!/usr/bin/env python3
"""Run the three-class linear-separability experiment over several seeds and
print a per-seed accuracy table plus the averages.

Example:
    python scripts/run_classification_experiment.py --seeds 0,1,2,3,4
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from scdt import GenConfig, TransformConfig, run_experiment
from scdt.classify import DEFAULT_LDA_LAMBDA
from scdt.transform import DEFAULT_N_QUANTILES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--quantiles", type=int, default=DEFAULT_N_QUANTILES)
    parser.add_argument("--noise-sigma", type=float, default=0.02)
    parser.add_argument("--lda-lambda", type=float, default=DEFAULT_LDA_LAMBDA)
    parser.add_argument("--report", help="optional JSON file for the summary")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    gen = GenConfig(noise_sigma=args.noise_sigma)
    cfg = TransformConfig(n_quantiles=args.quantiles)

    rows = []
    start = time.monotonic()
    for seed in seeds:
        report = run_experiment(gen, cfg, args.lda_lambda, seed=seed)
        rows.append((seed, report.accuracy_signal_space, report.accuracy_scdt_space))
        print(
            f"seed {seed:>4d}   signal space {report.accuracy_signal_space:6.3f}   "
            f"transform space {report.accuracy_scdt_space:6.3f}"
        )
    elapsed = time.monotonic() - start
    signal_mean = float(np.mean([r[1] for r in rows]))
    scdt_mean = float(np.mean([r[2] for r in rows]))
    print(f"mean over {len(seeds)} seeds: signal space {signal_mean:.3f}, "
          f"transform space {scdt_mean:.3f} ({elapsed:.1f} s)")

    if args.report:
        summary = {
            "seeds": seeds,
            "accuracy_signal_space": [r[1] for r in rows],
            "accuracy_scdt_space": [r[2] for r in rows],
            "mean_signal_space": signal_mean,
            "mean_scdt_space": scdt_mean,
            "elapsed_seconds": elapsed,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.report}")


if __name__ == "__main__":
    main()
