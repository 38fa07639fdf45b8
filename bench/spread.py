"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py WORKLOAD [--runs 10] [--first-seed 1]
                            [--save SET.json] [--against OTHER.json]

Runs ``bench/run.py`` once per seed, untraced, with the run length from
BENCHMARK.json, then prints for each end-to-end metric its median and
the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound.  A benchmark is steady when every
spread is well inside its bound.  ``--save`` keeps the values of the
set; ``--against`` prints each median next to a saved set's and how
much worse it is, as a share of the saved median, which must stay
within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write this set's values here")
    parser.add_argument("--against", type=Path, help="a saved set to compare medians with")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not line["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})", file=sys.stderr)
            return 1
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
              flush=True)
    if args.save:
        args.save.write_text(json.dumps({"workload": args.workload, "values": values}))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        print(f"{name:14s} median {median:.6g}  spread {share:.3f}  bound {bounds[name]}")
    if args.against:
        saved = json.loads(args.against.read_text())
        if saved["workload"] != args.workload:
            print(f"{args.against} holds {saved['workload']}", file=sys.stderr)
            return 1
        for name, series in values.items():
            old, new = statistics.median(saved["values"][name]), statistics.median(series)
            worse = (new - old) / old  # every metric here is better lower
            print(f"{name:14s} saved {old:.6g}  now {new:.6g}  worse by {worse:+.3f}  "
                  f"bound {bounds[name]}  {'ok' if worse <= bounds[name] else 'OVER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
