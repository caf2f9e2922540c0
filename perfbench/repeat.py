"""Run the benchmark over several seeds and workloads into one result file.

    python3 perfbench/repeat.py --out FILE [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1]
                                [--seconds S]

Runs ``run.py`` once per (workload, seed), one after another, appending each
full result to FILE; the runs' standard error goes to FILE.log.  Ends by
printing ``compare.py``'s spread summary of FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    failed = 0
    with open(f"{out}.log", "a") as log:
        for workload in args.workloads.split(","):
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--record", str(out)]
                proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                                      stderr=log, text=True, timeout=600)
                last = (proc.stdout.strip().splitlines() or [""])[-1]
                print(f"{workload} seed {seed}: exit {proc.returncode} {last}",
                      flush=True)
                failed += proc.returncode != 0
    compare.summarise(out, SPEC)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
