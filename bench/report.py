"""Run every workload once and print its summary: one line per figure, with units.

    python3 bench/report.py --seed 1 --seconds 20 [--tiny]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith(f"# {workload} ")))
        if proc.returncode or not json.loads(lines[-1])["correct"]:
            print(f"# {workload}: run failed\n{proc.stderr[-1000:]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
