#!/usr/bin/env python3
"""Size/timing sweep of the resolution's three generator checks.

For each arity n in ``--arities`` and each check in ``--checks``, prints
the number of generators checked, the wall time and the CPU time
(`time.process_time`) of the check, and the peak resident set size of this
process so far.  The checks are

* ``d2``: ``Difinfty().check_d_square(n)``, diff^2 = 0;
* ``cross``: ``cross_check_cobar(n)``, the cobar differential of the
  Koszul dual against diff;
* ``cobar-d2``: ``sdif_cobar_d_square(n)``, the cobar diff^2 = 0.

Each check starts from nothing (a fresh `Difinfty`), so its time covers
every generator up to arity n, the differentials included.  Everything
runs in one process, so each peak RSS covers every check run before it;
run one arity and one check per process to get that check's own peak:

    python3 scripts/d_square_sweep.py --arities 9 --checks d2
"""

import argparse
import resource
import time

from operad_forge.dif_operads import Difinfty, alphabet
from operad_forge.koszul_dual import cross_check_cobar, sdif_cobar_d_square

CHECKS = {
    "d2": lambda n: Difinfty().check_d_square(n),
    "cross": cross_check_cobar,
    "cobar-d2": sdif_cobar_d_square,
}


def peak_rss_mb() -> float:
    """Peak RSS so far in MB; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arities", type=int, nargs="+", default=[8, 9])
    parser.add_argument("--checks", nargs="+", choices=list(CHECKS),
                        default=list(CHECKS))
    args = parser.parse_args()

    for n in args.arities:
        for name in args.checks:
            wall, cpu = time.monotonic(), time.process_time()
            bad = CHECKS[name](n)
            wall, cpu = time.monotonic() - wall, time.process_time() - cpu
            status = "ok" if not bad else f"{len(bad)} NONZERO RESIDUALS"
            print(f"arity<={n} {name:>8}: {len(alphabet(n)):3d} generators  "
                  f"{wall:8.2f}s wall {cpu:8.2f}s CPU  "
                  f"peak RSS {peak_rss_mb():7.1f} MB  {status}", flush=True)
            assert not bad


if __name__ == "__main__":
    main()
