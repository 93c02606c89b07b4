"""Time one set-up: importing papsim and generating a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints one JSON object with the elapsed seconds, the host speed during
the set-up, and the seconds scaled by it (see calibrate.py). run.py
starts this in a fresh interpreter several times per run, so every
sample pays the full import.
"""

import json
import sys
from pathlib import Path

import calibrate


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with calibrate.SpeedClock() as clock:
        import papsim  # noqa: F401  (the import is what is being timed)
        import workloads
        workloads.prepare(workload, seed, workdir)
    print(json.dumps({"elapsed_s": clock.elapsed, "speed": clock.speed,
                      "scaled_s": clock.scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
