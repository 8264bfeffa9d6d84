#!/usr/bin/env python3
"""Run the acceptance suite and print one PASS/FAIL line per criterion,
then every test's duration, slowest first."""

import subprocess
import sys


def main() -> int:
    return subprocess.call([
        sys.executable, "-m", "pytest", "tests/test_acceptance.py",
        "-v", "-s", "--no-header", "--durations=0",
    ])


if __name__ == "__main__":
    raise SystemExit(main())
