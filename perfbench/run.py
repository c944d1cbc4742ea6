#!/usr/bin/env python3
"""Entry point of the benchmark: builds `perfbench` and runs it.

    python3 perfbench/run.py --workload walk-bound --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the `perfbench` package with
cargo (into `CARGO_TARGET_DIR` when set), runs it once with the same
arguments and prints, as the last line of standard output, its JSON
object with `correct`, `attempted`, `failed` and `metrics`. The binary's
progress, pass times and run manifest go to standard error.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "Cargo.toml"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    argv = ["cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", str(MANIFEST), "--",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench printed no result")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
