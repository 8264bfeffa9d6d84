#!/usr/bin/env python3
"""Size/timing sweep of the check diff^2 = 0 on the resolution's generators.

For each arity n in ``--arities``, prints the number of generators checked,
the wall time of ``Difinfty().check_d_square(n)`` and the peak resident set
size of this process so far.  Each arity is a fresh `Difinfty`, so its time
covers every generator up to arity n, their differentials included.  The
arities run in one process, so each peak RSS covers every arity up to its
own; run one arity per process to get its own peak.
"""

import argparse
import resource
import time

from operad_forge.dif_operads import Difinfty, alphabet


def peak_rss_mb() -> float:
    """Peak RSS so far in MB; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arities", type=int, nargs="+", default=[8, 9])
    args = parser.parse_args()

    for n in args.arities:
        started = time.monotonic()
        bad = Difinfty().check_d_square(n)
        elapsed = time.monotonic() - started
        status = "ok" if not bad else f"{len(bad)} NONZERO RESIDUALS"
        print(f"arity<={n}: {len(alphabet(n)):3d} generators  "
              f"{elapsed:8.2f}s  peak RSS {peak_rss_mb():7.1f} MB  {status}",
              flush=True)
        assert not bad


if __name__ == "__main__":
    main()
