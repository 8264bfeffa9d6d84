#!/usr/bin/env python3
"""Size/timing sweep of the total-complex cohomology.

For each algebra and each level n up to ``--max-level``, prints the
cohomology dims of ``CochainComplexes(alg).cohomology_ranks(n)``, its wall
time and the peak resident set size of this process so far.  Each level is
a fresh call, so its time covers levels 0..n.  The algebras run one after
the other in one process; run one ``--algebras`` name per process to get
each algebra's own peak.
"""

import argparse
import resource
import time
from fractions import Fraction

from operad_forge.algebras import DifAlgebraData
from operad_forge.cochain import CochainComplexes

ALGEBRAS = {
    # two orthogonal idempotents, d = -id, at weight 1
    "two-dim": ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]], 1),
    # k[x]/(x^2) with d(x) = x, at weight 1
    "dual-numbers": ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                     [[0, 0], [0, 1]], 1),
    # the dual numbers in the basis (1 + x, 2x): d is not diagonal
    "gauge-dual-numbers": ([[[1, Fraction(1, 2)], [0, 1]], [[0, 1], [0, 0]]],
                           [[0, Fraction(1, 2)], [0, 1]], 1),
}


def peak_rss_mb() -> float:
    """Peak RSS so far in MB; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebras", nargs="+", choices=sorted(ALGEBRAS),
                        default=list(ALGEBRAS))
    parser.add_argument("--max-level", type=int, default=7)
    args = parser.parse_args()

    for name in args.algebras:
        cx = CochainComplexes(DifAlgebraData.build(*ALGEBRAS[name]))
        for n in range(args.max_level + 1):
            started = time.monotonic()
            dims = cx.cohomology_ranks(n)
            elapsed = time.monotonic() - started
            print(f"{name:18s} level {n}: {elapsed:8.2f}s  "
                  f"peak RSS {peak_rss_mb():7.1f} MB  dims {dims}",
                  flush=True)


if __name__ == "__main__":
    main()
