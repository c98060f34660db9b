"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload heldout --seeds 1-10 --seconds 30

Runs ``bench/run.py`` once per seed, one run at a time, and prints, per
metric, the median of the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. With ``--json PATH`` the values and figures are written there too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    values: dict[str, list] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    figures = {name: spread(vals) for name, vals in values.items()}
    for name, fig in figures.items():
        print(f"{name}: median {fig['median']:.4f} iqr/median {fig['iqr_over_median']:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": float(args.seconds), "metrics": figures},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
