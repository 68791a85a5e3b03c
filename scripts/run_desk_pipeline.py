#!/usr/bin/env python3
"""End-to-end desk-scale run: calibrate, profile speedups, write the offline
solution table, then sweep the accelerated fraction. The sweep plans from
`calibration.csv` alone; `solutions.csv` is kept as one more artifact.
Artifacts land in ./artifacts.

Usage: python3 scripts/run_desk_pipeline.py [SEED]
"""

import sys

from tdgemm.cli import main

ARTIFACTS = "artifacts"


def run(*argv):
    code = main(list(argv))
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    seed = sys.argv[1] if len(sys.argv) > 1 else "0"
    base = ["--seed", seed, "--l", "48", "--tables", ARTIFACTS, "--out", ARTIFACTS]
    run(*base, "calibrate", "--w", "2", "3", "4")
    run(*base, "profile", "--w", "2", "3", "4")
    run(*base, "solutions", "--w", "2", "3", "4")
    run(*base, "sweep", "--blocks", "3")
    print(f"artifacts written to ./{ARTIFACTS}")
