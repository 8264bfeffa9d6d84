"""The operad_forge benchmark: exact checks timed end to end, in fresh
processes, with a separate traced run for the per-layer numbers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
        --trace 0|1 [--size full|tiny]

Untraced (--trace 0): starts one worker process per repetition until S
seconds have passed and at least MIN_REPS repetitions ran. It reports the
fastest repetition's verdict_s and cpu_s, and the median peak_rss_mb and
setup_s. Traced (--trace 1): pairs of one untraced and one traced
repetition, for the same time; reports every per-layer metric of
BENCHMARK.json from the fastest traced repetition and writes its spans
file and the per-layer table under perfbench/results/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A run in which any check fails reports
correct false, no metrics, and exits 1. If the program cannot be run at
all (no operad_forge under src/), it prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("contract", "resolution", "deformation", "cochain")
SEED_NOTES = {
    "contract": "the seed does not change the inputs",
    "resolution": "the seed does not change the inputs",
    "deformation": "the seed draws every coefficient table of the tuples",
    "cochain": "the seed draws the operator-bracket samples",
}
# Fewer repetitions leave the result at the mercy of one slow stretch.
MIN_REPS = 3
# Set-up is short and noisy, so it gets extra set-up-only processes.
SETUP_SAMPLES = 7
# Every run must end within 180 s; workers still running then are killed.
DEADLINE_S = 170


class WorkerError(RuntimeError):
    """A worker that could not run the program at all."""


def spawn(workload: str, seed: int, size: str, deadline: float,
          extra: tuple[str, ...] | list[str] = ()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("deadline passed before the next repetition")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} did not finish within the deadline"
                          ) from exc
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_commit": git_commit(),
            "src_sha256": src.hexdigest()}


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repeat(seconds: float, deadline: float, one_round) -> list:
    """Call one_round() until `seconds` have passed and MIN_REPS rounds ran,
    or a round fails, or another round would pass the deadline."""
    start = time.monotonic()
    rounds, longest = [], 0.0
    while True:
        began = time.monotonic()
        rounds.append(one_round(deadline))
        now = time.monotonic()
        longest = max(longest, now - began)
        if any(r["failed"] for r in rounds[-1]) or now + longest > deadline:
            return rounds
        if len(rounds) >= MIN_REPS and now - start >= seconds:
            return rounds


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    """Untraced repetitions and the end-to-end metrics over them."""
    deadline = time.monotonic() + DEADLINE_S
    reps = [r for (r,) in repeat(seconds, deadline, lambda deadline: (
        spawn(workload, seed, size, deadline),))]
    out = {"reps": reps, "attempted": sum(r["attempted"] for r in reps),
           "failed": sum(r["failed"] for r in reps)}
    if not out["failed"]:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, size, deadline,
                                ["--setup-only"])["setup_s"])
        out["setups"] = setups
        # Every repetition does the same work on the same inputs, so the
        # spread between them is interference from other tenants of the
        # host, which slows whole stretches of 5-30 s by up to 60%. The
        # fastest repetition is the program's own cost.
        verdict_s = min(r["verdict_s"] for r in reps)
        out["metrics"] = {
            "verdict_s": verdict_s,
            "cpu_s": min(r["cpu_s"] for r in reps),
            "items_per_s": reps[0]["items"] / verdict_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(setups),
        }
    return out


def measure_traced(workload: str, seed: int, seconds: float, size: str
                   ) -> dict:
    """Pairs of one untraced and one traced repetition. The per-layer
    metrics and the spans file come from the fastest traced repetition."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"spans-{workload}-seed{seed}"
    fastest_s = [float("inf")]

    def pair(deadline):
        part = RESULTS / f"{stem}.part.bin"
        plain = spawn(workload, seed, size, deadline)
        traced = spawn(workload, seed, size, deadline,
                       ["--trace-to", str(part)])
        if traced.get("verdict_s", fastest_s[0]) < fastest_s[0]:
            fastest_s[0] = traced["verdict_s"]
            part.replace(RESULTS / f"{stem}.bin")
        else:
            part.unlink(missing_ok=True)
        return plain, traced

    rounds = repeat(seconds, time.monotonic() + DEADLINE_S, pair)
    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds]
    reps = plain + traced
    out = {"reps": reps, "attempted": sum(r["attempted"] for r in reps),
           "failed": sum(r["failed"] for r in reps),
           "spans_file": f"perfbench/results/{stem}.bin"}
    if not out["failed"]:
        fastest = min(traced, key=lambda r: r["verdict_s"])
        out["spans"] = fastest["spans"]
        out["metrics"] = dict(fastest["layers"])
        out["metrics"]["trace.overhead_ratio"] = (
            fastest["verdict_s"] / min(r["verdict_s"] for r in plain))
    return out


def result_line(run: dict, units: dict[str, str]) -> dict:
    correct = run["failed"] == 0
    metrics = {}
    if correct:
        metrics = {name: {"value": run["metrics"].get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    return {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def report(workload: str, seed: int, trace: int, run: dict, line: dict,
           prov: dict) -> list[str]:
    """Human-readable lines for one workload's run."""
    lines = [f"== {workload}  seed {seed} ({SEED_NOTES[workload]})  "
             f"trace {trace}  repetitions {len(run['reps'])}"]
    frac = run["failed"] / run["attempted"]
    if trace:
        metrics = run.get("metrics", {})
        shown = {}
        for name, value in metrics.items():
            prefix = name.rpartition(".")[0]
            if metrics.get(f"{prefix}.calls", metrics.get(f"{prefix}.self_s",
                                                          1)):
                shown[name] = (value, tracer.unit_of(name))
    else:
        shown = {name: (m["value"], m["unit"])
                 for name, m in line["metrics"].items()}
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    lines.append(f"  {'fail_frac':<44} {frac:>14.6g} ratio "
                 f"({run['failed']} of {run['attempted']} checks failed)")
    if not trace:
        per_rep = ", ".join(f"{r['verdict_s']:.3f}" for r in run["reps"])
        lines.append(f"  verdict_s per repetition (the fastest is "
                     f"reported): {per_rep}")
    else:
        lines.append(f"  spans: {run.get('spans')} written to "
                     f"{run['spans_file']}")
    for rep in run["reps"]:
        for failure in rep.get("failures", []):
            lines.append(f"  FAILED: {failure.strip()}")
    lines.append("  provenance: " + json.dumps(prov))
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str,
            prov: dict) -> tuple[dict, list[str]]:
    end_to_end, per_layer = load_metric_specs()
    if trace:
        run = measure_traced(workload, seed, seconds, size)
    else:
        run = measure(workload, seed, seconds, size)
    line = result_line(run, per_layer if trace else end_to_end)
    lines = report(workload, seed, trace, run, line, prov)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = {"workload": workload, "seed": seed,
              "seed_note": SEED_NOTES[workload], "trace": trace,
              "size": size, "seconds": seconds, "provenance": prov,
              "result": line, "reps": run["reps"],
              "setups": run.get("setups")}
    if trace:
        (RESULTS / f"layers-{workload}-seed{seed}.txt").write_text(
            "\n".join(lines) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return line, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    prov = provenance()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            line, lines = run_one(name, args.seed, args.seconds, args.trace,
                                  args.size, prov)
            print("\n".join(lines), flush=True)
            results[name] = line
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
