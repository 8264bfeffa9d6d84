#!/usr/bin/env python3
"""Size/timing sweep of the exhaustive homotopy-contraction verification.

Useful for picking weight bounds: prints monomial counts, wall time, CPU
time (``ru_utime + ru_stime``) and the peak resident set size so far
(``ru_maxrss``), each of this process and of its finished workers, per
(arity, degree, weight) configuration, optionally fanning out over worker
processes.  On a shared machine the CPU time varies less than the wall
time.  The weights run in one process, so each peak RSS covers every weight
up to its own.
"""

import argparse
import resource
import time

from operad_forge.coeffs import LAMBDA
from operad_forge.contraction import verify_parallel
from operad_forge.dif_operads import enumerate_monomials


def peak_rss_mb() -> float:
    """Peak RSS so far in MB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def cpu_s() -> float:
    """CPU seconds so far, user plus system, of this process and of its
    finished workers."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-arity", type=int, default=5)
    parser.add_argument("--max-degree", type=int, default=3)
    parser.add_argument("--weights", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    for w in args.weights:
        count = len(enumerate_monomials(args.max_arity, w, min_degree=1,
                                        max_degree=args.max_degree))
        started, cpu_started = time.monotonic(), cpu_s()
        checked, bad = verify_parallel(args.max_arity, args.max_degree, w,
                                       LAMBDA, args.jobs)
        elapsed = time.monotonic() - started
        cpu = cpu_s() - cpu_started
        status = "ok" if not bad else f"{len(bad)} VIOLATIONS"
        print(f"weight<={w}: {count:6d} monomials  {elapsed:8.2f}s  "
              f"cpu {cpu:8.2f}s  peak RSS {peak_rss_mb():7.1f} MB  {status}")
        assert checked == count


if __name__ == "__main__":
    main()
