"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs run.py with a forced fault in each case below and checks that the fault
is counted as a failed operation with a message, and that the run still
ends normally with its JSON result line. Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

# (arguments, failed operations expected, text the failure message contains)
CASES = [
    # Golden digests are checked at seed 0; a corrupted entry fails every op.
    (["--workload", "exp-pair", "--seed", "0", "--inject", "corrupt-golden"], "all",
     "differs from golden"),
    # A digest forced to differ on the rerun fails that op alone.
    (["--workload", "exp-pair", "--seed", "7", "--inject", "digest-mismatch"], 1,
     "rerun differs from the first call"),
    # A wrong sender digest on the first transfer fails that transfer alone.
    (["--workload", "loopback-rand-high", "--seed", "1", "--inject", "digest-mismatch"], 1,
     "receiver digest"),
]


def run_case(args: list[str], expected, needle: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args, "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}, stderr: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    want = result["attempted"] if expected == "all" else expected
    problems = []
    if result["correct"]:
        problems.append("run reported correct")
    if result["failed"] != want:
        problems.append(f"failed={result['failed']}, want {want} of {result['attempted']}")
    if not any(line.startswith("FAILED") and needle in line for line in lines):
        problems.append(f"no FAILED line mentioning {needle!r}")
    return problems


def main() -> int:
    bad = 0
    for args, expected, needle in CASES:
        problems = run_case(args, expected, needle)
        bad += bool(problems)
        print(("FAIL " if problems else "ok   ") + " ".join(args), *problems, sep="\n    ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
