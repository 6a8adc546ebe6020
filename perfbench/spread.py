"""Run one workload over several seeds and print, for each metric, the
median, the quartiles and their distance as a share of the median.

    python3 perfbench/spread.py --workload fusion_train --seeds 10

Each run is ``run.py`` with ``--seconds`` from BENCHMARK.json, so the
figures are those a comparison of two commits would see. Exits non-zero
if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

from summary import median, quartiles, spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs, with seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, on which subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        info = next((json.loads(line)["run"] for line in lines if line.startswith('{"run"')), {})
        walls = " ".join(f"{rep['wall_s']:.2f}" for rep in info.get("reps", []))
        steal = info.get("cpu_steal_share")
        steal = "n/a" if steal is None else f"{steal:.3f}"
        print(f"seed {seed}: ok  repetitions {walls}  CPU steal {steal}", flush=True)
    for name, vals in values.items():
        q1, q3 = quartiles(vals)
        share = spread(vals) if median(vals) else 0.0
        print(f"{name:<34} n {len(vals):>2}  median {median(vals):>12.6g}  "
              f"q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {share:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
