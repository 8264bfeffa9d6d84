"""One run of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--size full|tiny]
        [--spawned-at T] [--setup-only] [--trace-to SPANS_FILE]

Prints the run's measurement as one JSON line. `run.py` starts one of these
per repetition, so every run starts with cold caches. Exit codes: 0 all
checks pass, 1 some check failed, 3 operad_forge cannot be imported from
this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("contract", "resolution", "deformation",
                            "cochain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="CLOCK_MONOTONIC time at which the parent started "
                        "this process")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first workload call; report setup_s")
    p.add_argument("--trace-to", type=Path, default=None,
                   help="trace the run and write its spans to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import operad_forge
    except ImportError as exc:
        print(f"worker: cannot import operad_forge from {SRC}: {exc}",
              file=sys.stderr)
        return 3
    if not Path(operad_forge.__file__).resolve().is_relative_to(
            SRC.resolve()):
        print(f"worker: operad_forge comes from {operad_forge.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload].setup(
            args.seed, **workloads.SIZES[args.workload][args.size])
        setup_s = (time.monotonic() - args.spawned_at
                   if args.spawned_at is not None else None)
        print(json.dumps({"workload": args.workload, "setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace_to is not None:
        from tracer import Tracer

        tracer = Tracer()
    result = workloads.execute(args.workload, args.seed, args.size,
                               tracer=tracer, spawned_at=args.spawned_at)
    if tracer is not None:
        tracer.write_spans(args.trace_to)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
