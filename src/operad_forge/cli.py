"""Command-line entry point.

`COMMANDS` is the one list of the subcommands and their flags: each row
names its group, subcommand, runner, own flags and shared flags, and
`build_parser` and the report header of every run are built from it
(`opforge GROUP SUB --help` prints one row's flags).  The groups are
difinfty, dif, koszul, contract, linfty, mc, cohomology and hda.

Exit codes: 0 all checks pass, 1 check failures, 2 usage errors (bad
arguments, an input file that does not parse, or the rewriting step bound
OPERAD_FORGE_MAX_STEPS reached), 3 internal errors (a broken invariant,
including a homogeneity or ordering error raised after the inputs parsed).
Every randomized check takes an explicit --seed (default 0) which is echoed
in the report; structured reports (--out) carry no wall-clock data so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .coeffs import Coefficient, parse_weight
from .dif_operads import InternalInvariantError, RewriteLimitError
from .free_operad import HomogeneityError
from .trees import ForeignGeneratorError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass
class Report:
    command: str
    params: dict
    checks: list = field(default_factory=list)
    seed: Optional[int] = None
    output: Optional[str] = None   # free-form payload (elements, tables)

    def add(self, name: str, passed: bool, details: str = ""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "details": details})

    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "checks": self.checks,
            "output": self.output,
            "passed": self.passed(),
        }, indent=1, sort_keys=True)

    def render(self, elapsed: float) -> str:
        lines = [f"== {self.command}"]
        if self.params:
            lines.append("   " + " ".join(f"{k}={v}" for k, v
                                          in sorted(self.params.items())))
        if self.seed is not None:
            lines.append(f"   seed={self.seed}")
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            line = f" [{mark}] {c['name']}"
            if c["details"]:
                line += f": {c['details']}"
            lines.append(line)
        if self.output:
            lines.append(self.output)
        status = "OK" if self.passed() else "FAILED"
        lines.append(f"-- {status} in {elapsed:.2f}s")
        return "\n".join(lines)


class InputError(Exception):
    """An input file that cannot be read or parsed."""


def _load(parse, path: str):
    """``parse`` applied to the text of ``path``; every failure here is a
    bad input, whatever its type."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, TypeError, ValueError, KeyError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def run_difinfty_diff(args, rep: Report) -> None:
    from .dif_operads import Difinfty, parse_generator
    from .formats import element_records

    op = Difinfty(parse_weight(args.lam))
    if args.selftest:
        rep.add("diff(m2) = 0", op.diff(parse_generator("m2")).is_zero())
        rep.add("diff(d1) = 0", op.diff(parse_generator("d1")).is_zero())
        return
    img = op.diff(parse_generator(args.gen))
    rep.add(f"diff({args.gen}) computed", True, f"{len(img.terms)} terms")
    rep.output = json.dumps(element_records(img), indent=1)


def run_difinfty_d2check(args, rep: Report) -> None:
    from .dif_operads import Difinfty

    if args.selftest:
        bad = Difinfty(parse_weight(args.lam)).check_d_square(2)
        rep.add("diff^2 = 0 up to arity 2", not bad)
        return
    bad = Difinfty(parse_weight(args.lam)).check_d_square(args.max_arity)
    rep.add(f"diff^2 = 0 on all generators up to arity {args.max_arity}",
            not bad, "; ".join(f"{g}: {r!r}" for g, r in bad))


def run_dif_normalize(args, rep: Report) -> None:
    from .dif_operads import DifRewriter
    from .formats import element_records, parse_element

    rw = DifRewriter(parse_weight(args.lam))
    if args.selftest:
        from .dif_operads import d_gen
        from .free_operad import OperadElement, partial_compose

        d1 = OperadElement.generator(d_gen(1))
        nf = rw.normalize(partial_compose(d1, 1, d1))
        rep.add("d1 o1 d1 irreducible", nf == partial_compose(d1, 1, d1))
        return
    x = _load(parse_element, args.infile)
    nf = rw.normalize(x)
    rep.add("normal form computed", True, f"{len(nf.terms)} terms")
    rep.output = json.dumps(element_records(nf), indent=1)


def run_koszul_delta(args, rep: Report) -> None:
    from .coeffs import format_coefficient
    from .koszul_dual import CoopGenerator, TypeI, delta, delta_table

    lam = parse_weight(args.lam)
    if args.selftest:
        rows = delta(CoopGenerator("mt", 1), TypeI(1, 1, 1), lam)
        rep.add("counit: Delta(mt1) = mt1 x mt1 on the two-vertex tree",
                rows == [(Coefficient.one(),
                          (CoopGenerator("mt", 1), CoopGenerator("mt", 1)))])
        return
    kind, arity = args.gen[:2], int(args.gen[2:])
    gen = CoopGenerator(kind, arity)
    lines = []
    for shape, coeff, decs in delta_table(gen, lam):
        lines.append(f"{shape}  ->  ({format_coefficient(coeff)}) * "
                     + " (x) ".join(map(repr, decs)))
    rep.add(f"nonzero decompositions of {args.gen}", True,
            f"{len(lines)} entries")
    rep.output = "\n".join(lines)


def run_koszul_crosscheck(args, rep: Report) -> None:
    from .koszul_dual import cross_check_cobar, sdif_cobar_d_square

    lam = parse_weight(args.lam)
    if args.selftest:
        rep.add("cobar differential matches up to arity 3",
                not cross_check_cobar(3, lam))
        return
    bad = cross_check_cobar(args.max_arity, lam)
    rep.add(f"cobar(Koszul dual) = explicit differential up to arity "
            f"{args.max_arity}", not bad,
            "; ".join(f"{g}: {r!r}" for g, r in bad))
    bad2 = sdif_cobar_d_square(args.max_arity, lam)
    rep.add("suspended-table cobar differential squares to zero", not bad2,
            "; ".join(f"{g}: {r!r}" for g, r in bad2))


def run_contract_apply(args, rep: Report) -> None:
    from .contraction import Contraction
    from .dif_operads import Difinfty
    from .formats import element_records, parse_element

    contraction = Contraction(Difinfty(parse_weight(args.lam)))
    if args.selftest:
        from .dif_operads import d_gen, m_gen
        from .free_operad import OperadElement, partial_compose

        m2 = OperadElement.generator(m_gen(2))
        d1 = OperadElement.generator(d_gen(1))
        h = contraction.apply(partial_compose(m2, 2, d1))
        rep.add("H(m2 o2 d1) = 0", h.is_zero())
        return
    x = _load(parse_element, args.infile)
    h = contraction.apply(x)
    rep.add("H applied", True, f"{len(h.terms)} terms")
    rep.output = json.dumps(element_records(h), indent=1)


def run_contract_verify(args, rep: Report) -> None:
    from .contraction import verify_parallel

    lam = parse_weight(args.lam)
    if args.selftest:
        checked, bad = verify_parallel(3, 1, 2, lam, 1)
        rep.add("identity on arity<=3, degree 1, weight<=2", not bad,
                f"{checked} monomials")
        return
    checked, bad = verify_parallel(args.max_arity, args.max_degree,
                                   args.max_weight, lam, args.jobs)
    rep.add(
        f"diff H + H diff = id on arity<={args.max_arity}, "
        f"1<=degree<={args.max_degree}, weight<={args.max_weight}",
        not bad, f"{checked} monomials"
        + ("" if not bad else "; " + "; ".join(t for t, _ in bad[:5])))


def run_linfty_jacobi(args, rep: Report) -> None:
    from functools import partial

    from .contraction import map_in_order, max_workers
    from .hom_complex import GradedSpace
    from .linf import jacobi_check

    if args.two_degree:
        space = GradedSpace({0: 1, 1: max(1, args.dim - 1)})
    else:
        space = GradedSpace({0: args.dim})
    trials = 2 if args.selftest else args.trials
    maxn = min(args.maxn, 3) if args.selftest else args.maxn
    widths = list(range(1, maxn + 1))
    check = partial(jacobi_check, space, parse_weight(args.lam), trials=trials,
                    seed=args.seed, max_arity=args.arity)
    workers = 1 if args.selftest else max_workers(args.jobs, len(widths))
    results = map_in_order(check, widths, workers)
    for n, result in zip(widths, results):
        rep.add(f"generalized Jacobi at width {n}", not result["failures"],
                f"{result['checked']} seeded tuples"
                + ("" if not result["failures"]
                   else "; " + "; ".join(result["failures"][:3])))


def run_mc_check(args, rep: Report) -> None:
    from .algebras import (associativity_defects, leibniz_defects,
                           load_algebra)
    from .linf import mc_residual_of_algebra

    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[0]], 0)
        rep.add("idempotent with d=0 is Maurer-Cartan",
                mc_residual_of_algebra(alg).is_zero())
        return
    alg = _load(load_algebra, args.algebra)
    residual = mc_residual_of_algebra(alg)
    assoc = associativity_defects(alg)
    leib = leibniz_defects(alg)
    axioms_hold = not assoc and not leib
    rep.add("Maurer-Cartan residual vanishes", residual.is_zero(),
            "" if residual.is_zero() else repr(residual))
    rep.add("residual vanishes iff axioms hold",
            residual.is_zero() == axioms_hold,
            f"associativity defects: {len(assoc)}, "
            f"leibniz defects: {len(leib)}")


def run_mc_twist_compare(args, rep: Report) -> None:
    from .algebras import load_algebra
    from .compare import da_twist_mismatches

    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
        rep.add("twisted l1 matches -dDA at level 1",
                not da_twist_mismatches(alg, 1))
        return
    alg = _load(load_algebra, args.algebra)
    bad = da_twist_mismatches(alg, args.max_arity)
    rep.add(f"twisted l1 = translation of -dDA, levels 1..{args.max_arity}",
            not bad, "; ".join(bad[:4]))


def run_cohomology_compute(args, rep: Report) -> None:
    from .algebras import load_algebra, load_bimodule
    from .cochain import CochainComplexes, rank_dense_oracle

    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[0]]], [[0]], 0)
        dims = CochainComplexes(alg).cohomology_ranks(2)
        rep.add("square-zero dims (1, 2, 2)", dims == [1, 2, 2], str(dims))
        return
    alg = _load(load_algebra, args.algebra)
    bim = _load(load_bimodule, args.bimodule) if args.bimodule else None
    cx = CochainComplexes(alg, bim)
    columns = [cx.da_matrix(n) for n in range(args.max_level + 1)]
    dims = cx.cohomology_dims(columns)
    oracle = cx.cohomology_dims(columns, rank_fn=rank_dense_oracle)
    # the check name predates the sparse ranks; golden reports pin it
    rep.add("fraction-free and dense ranks agree", dims == oracle,
            f"{dims} vs {oracle}")
    rep.output = "\n".join(f"H^{n}: dim {d}" for n, d in enumerate(dims))


def run_cohomology_compare_twist(args, rep: Report) -> None:
    from .algebras import load_algebra
    from .compare import (da_twist_mismatches, do_bracket_mismatches,
                          do_twist_mismatches)

    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
        rep.add("operator twist matches dDO at level 1",
                not do_twist_mismatches(alg, 1))
        return
    alg = _load(load_algebra, args.algebra)
    bad = da_twist_mismatches(alg, args.max_level)
    rep.add(f"twisted l1 = translation of -dDA, levels 1..{args.max_level}",
            not bad, "; ".join(bad[:4]))
    bad = do_twist_mismatches(alg, args.max_level)
    rep.add(f"(l1^beta)^tau = dDO, levels 1..{args.max_level}",
            not bad, "; ".join(bad[:4]))
    import random

    rng = random.Random(args.seed)
    bad = do_bracket_mismatches(alg, min(3, args.max_level), corrected=True,
                                rng=rng)
    rep.add("transported operator bracket matches twisted width-2 bracket",
            not bad, "; ".join(bad[:4]))


def run_hda_check(args, rep: Report) -> None:
    from .hda import check_identities, load_structure, mc_equivalence_report

    if args.selftest:
        from .coeffs import Coefficient as C
        from .hda import HdaStructure
        from .hom_complex import GradedSpace

        s = HdaStructure(GradedSpace({0: 1}), C.rational(1), 2)
        rep.add("zero structure passes", not check_identities(s))
        return
    s = _load(load_structure, args.structure)
    bad = check_identities(s, args.max_arity)
    rep.add(f"structure identities up to arity {args.max_arity}", not bad,
            "; ".join(f"{name} at arity {n}" for name, n in bad))
    eq = mc_equivalence_report(s)
    rep.add("identity residuals vanish iff Maurer-Cartan components do",
            all(r["match"] for r in eq),
            "; ".join(str(r) for r in eq if not r["match"]))


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _int(default: int, minimum: Optional[int] = 1) -> dict:
    """An int flag; argparse refuses a value below ``minimum`` (exit 2)."""
    if minimum is None:
        return {"type": int, "default": default}

    def at_least(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(
                f"{n} is below the minimum {minimum}")
        return n
    at_least.__name__ = "int"    # argparse names it in "invalid int value"
    return {"type": at_least, "default": default}


# the flags the subcommands share, in --help order; every subcommand takes
# --out and --selftest, and the others where its row names them
SHARED_FLAGS = {
    "--lambda": {"dest": "lam", "default": "generic",
                 "help": "'generic' (polynomial weight) or a rational"},
    "--out": {"default": None,
              "help": "write the structured report to this file"},
    "--selftest": {"action": "store_true",
                   "help": "run this subcommand's built-in smoke examples"},
    "--seed": _int(0, None),
    "--jobs": _int(1),
}
ALWAYS = ("--out", "--selftest")
# never in a report's params; the seed is reported as `Report.seed`
UNECHOED = ALWAYS + ("--seed",)


class Command(NamedTuple):
    """One subcommand.  Its report echoes every flag it takes under the
    option name without dashes (`--two-degree` as `two_degree`) in
    `params`, except the UNECHOED ones and those in `quiet`."""
    group: str
    sub: str
    runner: Callable[[argparse.Namespace, Report], None]
    flags: list            # own (option, argparse keywords), in --help order
    shared: tuple = ()     # SHARED_FLAGS it takes besides ALWAYS
    quiet: tuple = ()


COMMANDS = [
    Command("difinfty", "diff", run_difinfty_diff, [
        ("--gen", {"required": True, "help": "generator symbol, e.g. m5"})],
        ("--lambda",)),
    Command("difinfty", "d2check", run_difinfty_d2check,
            [("--max-arity", _int(6))], ("--lambda",)),
    Command("dif", "normalize", run_dif_normalize,
            [("--in", {"dest": "infile"})], ("--lambda",)),
    Command("koszul", "delta", run_koszul_delta, [
        ("--gen", {"required": True, "help": "e.g. sd4, sm3, dt2, mt5"}),
        ("--list", {"action": "store_true",
                    "help": "accepted and ignored: the table is always "
                            "listed"})],
        ("--lambda",), quiet=("--list",)),
    Command("koszul", "crosscheck", run_koszul_crosscheck,
            [("--max-arity", _int(6))], ("--lambda",)),
    Command("contract", "apply", run_contract_apply,
            [("--in", {"dest": "infile"})], ("--lambda",)),
    Command("contract", "verify", run_contract_verify, [
        ("--max-arity", _int(4)), ("--max-degree", _int(2)),
        ("--max-weight", _int(4))], ("--lambda", "--jobs")),
    # --jobs leaves the Jacobi report byte-identical, so it is not echoed
    Command("linfty", "jacobi", run_linfty_jacobi, [
        ("--dim", _int(2)), ("--maxn", _int(5)), ("--arity", _int(3)),
        ("--trials", _int(64)),
        ("--two-degree", {
            "action": "store_true",
            "help": "use a two-degree space instead of degree 0 only"})],
        ("--lambda", "--seed", "--jobs"), quiet=("--jobs",)),
    Command("mc", "check", run_mc_check, [("--algebra", {})]),
    Command("mc", "twist-compare", run_mc_twist_compare,
            [("--algebra", {}), ("--max-arity", _int(4))]),
    Command("cohomology", "compute", run_cohomology_compute, [
        ("--algebra", {}), ("--bimodule", {}),
        ("--max-level", _int(4, 0))]),
    Command("cohomology", "compare-twist", run_cohomology_compare_twist,
            [("--algebra", {}), ("--max-level", _int(4, 0))], ("--seed",)),
    Command("hda", "check", run_hda_check,
            [("--structure", {}), ("--max-arity", _int(4))]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opforge",
        description="exact operadic calculus for weighted differential "
                    "algebras")
    groups = parser.add_subparsers(dest="group", required=True)
    subs = {}
    for cmd in COMMANDS:
        if cmd.group not in subs:
            subs[cmd.group] = groups.add_parser(cmd.group).add_subparsers(
                dest="sub", required=True)
        p = subs[cmd.group].add_parser(cmd.sub)
        echo = {}
        for option, keywords in cmd.flags + [
                (o, kw) for o, kw in SHARED_FLAGS.items()
                if o in ALWAYS or o in cmd.shared]:
            dest = p.add_argument(option, **keywords).dest
            if option not in UNECHOED and option not in cmd.quiet:
                echo[option.lstrip("-").replace("-", "_")] = dest
        p.set_defaults(runner=cmd.runner, echo=echo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    report = Report(f"{args.group} {args.sub}",
                    {name: getattr(args, dest)
                     for name, dest in args.echo.items()},
                    seed=getattr(args, "seed", None))
    started = time.monotonic()
    try:
        args.runner(args, report)
    except InputError as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RewriteLimitError as exc:
        print(f"error: rewriting step bound OPERAD_FORGE_MAX_STEPS "
              f"reached: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HomogeneityError, ForeignGeneratorError,
            InternalInvariantError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError, KeyError) as exc:   # bad argument values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.monotonic() - started
    print(report.render(elapsed))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    return EXIT_OK if report.passed() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
