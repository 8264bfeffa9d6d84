"""Command-line entry point.

Groups and subcommands:

  difinfty diff --gen m5 | d2check --max-arity 8
  dif normalize --in FILE
  koszul delta --gen sd4 --list | crosscheck --max-arity 8
  contract apply --in FILE | verify --max-arity 5 --max-degree 3
  linfty jacobi --dim 2 --maxn 5 --arity 3 --trials 64 --seed 7
  mc check --algebra FILE | twist-compare --algebra FILE --max-arity 4
  cohomology compute --algebra FILE --max-level 4 | compare-twist ...
  hda check --structure FILE --max-arity 4

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
from typing import Optional

from .coeffs import Coefficient, LAMBDA, parse_rational
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


def _lambda_of(text: str) -> Coefficient:
    if text == "generic":
        return LAMBDA
    return Coefficient.rational(parse_rational(text))


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

def run_difinfty_diff(args) -> Report:
    from .dif_operads import Difinfty, parse_generator
    from .formats import element_records

    rep = Report("difinfty diff", {"gen": args.gen, "lambda": args.lam})
    if args.selftest:
        op = Difinfty(_lambda_of(args.lam))
        rep.add("diff(m2) = 0", op.diff(parse_generator("m2")).is_zero())
        rep.add("diff(d1) = 0", op.diff(parse_generator("d1")).is_zero())
        return rep
    op = Difinfty(_lambda_of(args.lam))
    img = op.diff(parse_generator(args.gen))
    rep.add(f"diff({args.gen}) computed", True, f"{len(img.terms)} terms")
    rep.output = json.dumps(element_records(img), indent=1)
    return rep


def run_difinfty_d2check(args) -> Report:
    from .dif_operads import Difinfty

    rep = Report("difinfty d2check",
                 {"max_arity": args.max_arity, "lambda": args.lam})
    if args.selftest:
        bad = Difinfty(_lambda_of(args.lam)).check_d_square(2)
        rep.add("diff^2 = 0 up to arity 2", not bad)
        return rep
    bad = Difinfty(_lambda_of(args.lam)).check_d_square(args.max_arity)
    rep.add(f"diff^2 = 0 on all generators up to arity {args.max_arity}",
            not bad, "; ".join(f"{g}: {r!r}" for g, r in bad))
    return rep


def run_dif_normalize(args) -> Report:
    from .dif_operads import DifRewriter
    from .formats import element_records, parse_element

    rep = Report("dif normalize", {"in": args.infile, "lambda": args.lam})
    rw = DifRewriter(_lambda_of(args.lam))
    if args.selftest:
        from .dif_operads import d_gen
        from .free_operad import OperadElement, partial_compose

        d1 = OperadElement.generator(d_gen(1))
        nf = rw.normalize(partial_compose(d1, 1, d1))
        rep.add("d1 o1 d1 irreducible", nf == partial_compose(d1, 1, d1))
        return rep
    x = _load(parse_element, args.infile)
    nf = rw.normalize(x)
    rep.add("normal form computed", True, f"{len(nf.terms)} terms")
    rep.output = json.dumps(element_records(nf), indent=1)
    return rep


def run_koszul_delta(args) -> Report:
    from .coeffs import format_coefficient
    from .koszul_dual import CoopGenerator, TypeI, delta, delta_table

    rep = Report("koszul delta", {"gen": args.gen, "lambda": args.lam})
    lam = _lambda_of(args.lam)
    if args.selftest:
        rows = delta(CoopGenerator("mt", 1), TypeI(1, 1, 1), lam)
        rep.add("counit: Delta(mt1) = mt1 x mt1 on the two-vertex tree",
                rows == [(Coefficient.one(),
                          (CoopGenerator("mt", 1), CoopGenerator("mt", 1)))])
        return rep
    kind, arity = args.gen[:2], int(args.gen[2:])
    gen = CoopGenerator(kind, arity)
    lines = []
    for shape, coeff, decs in delta_table(gen, lam):
        lines.append(f"{shape}  ->  ({format_coefficient(coeff)}) * "
                     + " (x) ".join(map(repr, decs)))
    rep.add(f"nonzero decompositions of {args.gen}", True,
            f"{len(lines)} entries")
    rep.output = "\n".join(lines)
    return rep


def run_koszul_crosscheck(args) -> Report:
    from .koszul_dual import cross_check_cobar, sdif_cobar_d_square

    rep = Report("koszul crosscheck",
                 {"max_arity": args.max_arity, "lambda": args.lam})
    lam = _lambda_of(args.lam)
    if args.selftest:
        rep.add("cobar differential matches up to arity 3",
                not cross_check_cobar(3, lam))
        return rep
    bad = cross_check_cobar(args.max_arity, lam)
    rep.add(f"cobar(Koszul dual) = explicit differential up to arity "
            f"{args.max_arity}", not bad,
            "; ".join(f"{g}: {r!r}" for g, r in bad))
    bad2 = sdif_cobar_d_square(args.max_arity, lam)
    rep.add("suspended-table cobar differential squares to zero", not bad2,
            "; ".join(f"{g}: {r!r}" for g, r in bad2))
    return rep


def run_contract_apply(args) -> Report:
    from .contraction import Contraction
    from .dif_operads import Difinfty
    from .formats import element_records, parse_element

    rep = Report("contract apply", {"in": args.infile, "lambda": args.lam})
    contraction = Contraction(Difinfty(_lambda_of(args.lam)))
    if args.selftest:
        from .dif_operads import d_gen, m_gen
        from .free_operad import OperadElement, partial_compose

        m2 = OperadElement.generator(m_gen(2))
        d1 = OperadElement.generator(d_gen(1))
        h = contraction.apply(partial_compose(m2, 2, d1))
        rep.add("H(m2 o2 d1) = 0", h.is_zero())
        return rep
    x = _load(parse_element, args.infile)
    h = contraction.apply(x)
    rep.add("H applied", True, f"{len(h.terms)} terms")
    rep.output = json.dumps(element_records(h), indent=1)
    return rep


def run_contract_verify(args) -> Report:
    from .contraction import verify_parallel

    rep = Report("contract verify", {
        "max_arity": args.max_arity, "max_degree": args.max_degree,
        "max_weight": args.max_weight, "lambda": args.lam,
        "jobs": args.jobs,
    })
    lam = _lambda_of(args.lam)
    if args.selftest:
        checked, bad = verify_parallel(3, 1, 2, lam, 1)
        rep.add("identity on arity<=3, degree 1, weight<=2", not bad,
                f"{checked} monomials")
        return rep
    checked, bad = verify_parallel(args.max_arity, args.max_degree,
                                   args.max_weight, lam, args.jobs)
    rep.add(
        f"diff H + H diff = id on arity<={args.max_arity}, "
        f"1<=degree<={args.max_degree}, weight<={args.max_weight}",
        not bad, f"{checked} monomials"
        + ("" if not bad else "; " + "; ".join(t for t, _ in bad[:5])))
    return rep


def run_linfty_jacobi(args) -> Report:
    from .hom_complex import GradedSpace
    from .linf import jacobi_check

    rep = Report("linfty jacobi", {
        "dim": args.dim, "maxn": args.maxn, "arity": args.arity,
        "trials": args.trials, "two_degree": args.two_degree,
        "lambda": args.lam,
    }, seed=args.seed)
    lam = _lambda_of(args.lam)
    if args.two_degree:
        space = GradedSpace({0: 1, 1: max(1, args.dim - 1)})
    else:
        space = GradedSpace({0: args.dim})
    trials = 2 if args.selftest else args.trials
    maxn = min(args.maxn, 3) if args.selftest else args.maxn
    widths = list(range(1, maxn + 1))
    if args.jobs > 1 and len(widths) > 1 and not args.selftest:
        from concurrent.futures import ProcessPoolExecutor

        from operad_forge.linf import _jacobi_width_worker

        tasks = [(dict(space.dims), tuple(sorted(lam.coeffs.items())), n,
                  trials, args.seed, args.arity) for n in widths]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_jacobi_width_worker, tasks))
    else:
        results = [jacobi_check(space, lam, n, trials, args.seed, args.arity)
                   for n in widths]
    for n, result in zip(widths, results):
        rep.add(f"generalized Jacobi at width {n}", not result["failures"],
                f"{result['checked']} seeded tuples"
                + ("" if not result["failures"]
                   else "; " + "; ".join(result["failures"][:3])))
    return rep


def run_mc_check(args) -> Report:
    from .algebras import (associativity_defects, leibniz_defects,
                           load_algebra)
    from .linf import mc_residual_of_algebra

    rep = Report("mc check", {"algebra": args.algebra})
    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[0]], 0)
        rep.add("idempotent with d=0 is Maurer-Cartan",
                mc_residual_of_algebra(alg).is_zero())
        return rep
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
    return rep


def run_mc_twist_compare(args) -> Report:
    from .algebras import load_algebra
    from .compare import da_twist_mismatches

    rep = Report("mc twist-compare",
                 {"algebra": args.algebra, "max_arity": args.max_arity})
    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
        rep.add("twisted l1 matches -dDA at level 1",
                not da_twist_mismatches(alg, 1))
        return rep
    alg = _load(load_algebra, args.algebra)
    bad = da_twist_mismatches(alg, args.max_arity)
    rep.add(f"twisted l1 = translation of -dDA, levels 1..{args.max_arity}",
            not bad, "; ".join(bad[:4]))
    return rep


def run_cohomology_compute(args) -> Report:
    from .algebras import load_algebra, load_bimodule
    from .cochain import CochainComplexes, rank_dense_oracle

    rep = Report("cohomology compute", {
        "algebra": args.algebra, "bimodule": args.bimodule,
        "max_level": args.max_level,
    })
    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[0]]], [[0]], 0)
        dims = CochainComplexes(alg).cohomology_ranks(2)
        rep.add("square-zero dims (1, 2, 2)", dims == [1, 2, 2], str(dims))
        return rep
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
    return rep


def run_cohomology_compare_twist(args) -> Report:
    from .algebras import load_algebra
    from .compare import (da_twist_mismatches, do_bracket_mismatches,
                          do_twist_mismatches)

    rep = Report("cohomology compare-twist",
                 {"algebra": args.algebra, "max_level": args.max_level},
                 seed=args.seed)
    if args.selftest:
        from .algebras import DifAlgebraData

        alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
        rep.add("operator twist matches dDO at level 1",
                not do_twist_mismatches(alg, 1))
        return rep
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
    return rep


def run_hda_check(args) -> Report:
    from .hda import check_identities, load_structure, mc_equivalence_report

    rep = Report("hda check",
                 {"structure": args.structure, "max_arity": args.max_arity})
    if args.selftest:
        from .coeffs import Coefficient as C
        from .hda import HdaStructure
        from .hom_complex import GradedSpace

        s = HdaStructure(GradedSpace({0: 1}), C.rational(1), 2)
        rep.add("zero structure passes", not check_identities(s))
        return rep
    s = _load(load_structure, args.structure)
    bad = check_identities(s, args.max_arity)
    rep.add(f"structure identities up to arity {args.max_arity}", not bad,
            "; ".join(f"{name} at arity {n}" for name, n in bad))
    eq = mc_equivalence_report(s)
    rep.add("identity residuals vanish iff Maurer-Cartan components do",
            all(r["match"] for r in eq),
            "; ".join(str(r) for r in eq if not r["match"]))
    return rep


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _common(p, lam=False, seed=False, jobs=False):
    """The flags shared by the subcommands; `--lambda` only where the weight
    is not read from an input file."""
    if lam:
        p.add_argument("--lambda", dest="lam", default="generic",
                       help="'generic' (polynomial weight) or a rational")
    p.add_argument("--out", default=None,
                   help="write the structured report to this file")
    p.add_argument("--selftest", action="store_true",
                   help="run this subcommand's built-in smoke examples")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if jobs:
        p.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opforge",
        description="exact operadic calculus for weighted differential "
                    "algebras")
    groups = parser.add_subparsers(dest="group", required=True)

    difinfty = groups.add_parser("difinfty").add_subparsers(
        dest="sub", required=True)
    p = difinfty.add_parser("diff")
    p.add_argument("--gen", required=True, help="generator symbol, e.g. m5")
    _common(p, lam=True)
    p.set_defaults(runner=run_difinfty_diff)
    p = difinfty.add_parser("d2check")
    p.add_argument("--max-arity", type=int, default=6)
    _common(p, lam=True)
    p.set_defaults(runner=run_difinfty_d2check)

    dif = groups.add_parser("dif").add_subparsers(dest="sub", required=True)
    p = dif.add_parser("normalize")
    p.add_argument("--in", dest="infile")
    _common(p, lam=True)
    p.set_defaults(runner=run_dif_normalize)

    koszul = groups.add_parser("koszul").add_subparsers(
        dest="sub", required=True)
    p = koszul.add_parser("delta")
    p.add_argument("--gen", required=True, help="e.g. sd4, sm3, dt2, mt5")
    p.add_argument("--list", action="store_true")
    _common(p, lam=True)
    p.set_defaults(runner=run_koszul_delta)
    p = koszul.add_parser("crosscheck")
    p.add_argument("--max-arity", type=int, default=6)
    _common(p, lam=True)
    p.set_defaults(runner=run_koszul_crosscheck)

    contract = groups.add_parser("contract").add_subparsers(
        dest="sub", required=True)
    p = contract.add_parser("apply")
    p.add_argument("--in", dest="infile")
    _common(p, lam=True)
    p.set_defaults(runner=run_contract_apply)
    p = contract.add_parser("verify")
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--max-weight", type=int, default=4)
    _common(p, lam=True, jobs=True)
    p.set_defaults(runner=run_contract_verify)

    linfty = groups.add_parser("linfty").add_subparsers(
        dest="sub", required=True)
    p = linfty.add_parser("jacobi")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--maxn", type=int, default=5)
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--two-degree", action="store_true",
                   help="use a two-degree space instead of degree 0 only")
    _common(p, lam=True, seed=True, jobs=True)
    p.set_defaults(runner=run_linfty_jacobi)

    mc = groups.add_parser("mc").add_subparsers(dest="sub", required=True)
    p = mc.add_parser("check")
    p.add_argument("--algebra")
    _common(p)
    p.set_defaults(runner=run_mc_check)
    p = mc.add_parser("twist-compare")
    p.add_argument("--algebra")
    p.add_argument("--max-arity", type=int, default=4)
    _common(p)
    p.set_defaults(runner=run_mc_twist_compare)

    cohomology = groups.add_parser("cohomology").add_subparsers(
        dest="sub", required=True)
    p = cohomology.add_parser("compute")
    p.add_argument("--algebra")
    p.add_argument("--bimodule", default=None)
    p.add_argument("--max-level", type=int, default=4)
    _common(p)
    p.set_defaults(runner=run_cohomology_compute)
    p = cohomology.add_parser("compare-twist")
    p.add_argument("--algebra")
    p.add_argument("--max-level", type=int, default=4)
    _common(p, seed=True)
    p.set_defaults(runner=run_cohomology_compare_twist)

    hda = groups.add_parser("hda").add_subparsers(dest="sub", required=True)
    p = hda.add_parser("check")
    p.add_argument("--structure")
    p.add_argument("--max-arity", type=int, default=4)
    _common(p)
    p.set_defaults(runner=run_hda_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        report: Report = args.runner(args)
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
