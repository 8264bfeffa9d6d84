#!/usr/bin/env python3
"""Size/timing sweep of the total-complex cohomology.

For each algebra and each level n up to ``--max-level``, builds the level-n
total differential once (``da_matrix(n)``), ranks it once (``level_rank``),
keeps the rank with the lower levels' and prints the dims of H^0..H^n from
the kept ranks (``dims_from_ranks``); the columns are dropped once ranked.
Each line gives the CPU seconds (``time.process_time``) of the build of
level n and of its rank (the ``echelon`` column times level n alone), the
wall time of both, and the peak resident set size of this process so far.
The algebras run one after the other in one process; run one
``--algebras`` name per process to get each algebra's own peak.
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
        ranks = []
        for n in range(args.max_level + 1):
            wall, cpu = time.monotonic(), time.process_time()
            columns = cx.da_matrix(n)
            built = time.process_time()
            ranks.append(cx.level_rank(n, columns))
            ranked = time.process_time()
            dims = cx.dims_from_ranks(ranks)
            print(f"{name:18s} level {n}: build {built - cpu:7.2f}s  "
                  f"echelon {ranked - built:7.2f}s CPU  "
                  f"wall {time.monotonic() - wall:7.2f}s  "
                  f"peak RSS {peak_rss_mb():7.1f} MB  dims {dims}",
                  flush=True)


if __name__ == "__main__":
    main()
