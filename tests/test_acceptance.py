"""Acceptance criteria, one test per criterion, all tolerances exact.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion on stdout.
"""

import itertools
import random
from fractions import Fraction

from operad_forge.algebras import DifAlgebraData, is_differential_algebra
from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.contraction import Contraction
from operad_forge.dif_operads import Difinfty, d_gen, m_gen
from operad_forge.formats import parse_tree
from operad_forge.free_operad import (
    OperadElement,
    TreeMonomial,
    pre_jacobi_check,
)
from operad_forge.hom_complex import GradedSpace
from operad_forge.koszul_dual import cross_check_cobar
from operad_forge.linf import mc_residual_of_algebra


def _report(number, description, passed):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - "
          f"{description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def el(s):
    return OperadElement.single(TreeMonomial(parse_tree(s)))


def test_acceptance_01_d_squared_zero_to_arity_eight():
    op = Difinfty()                      # generic weight
    bad = op.check_d_square(8)
    _report(1, "diff^2 = 0 on m_2..m_8 and d_1..d_8 at generic weight,"
               " exact", bad == [])


def test_acceptance_02_cobar_cross_check_to_arity_eight():
    mismatches = cross_check_cobar(8)
    _report(2, "cobar differential of the Koszul dual equals the explicit"
               " differential up to arity 8, exact", mismatches == [])


def test_acceptance_03_contraction_identity_exhaustive():
    # The literal monomial set (arity <= 5, 1 <= degree <= 3) is infinite
    # because arity-1 degree-0 vertices chain freely; the exhaustive check
    # runs at the recorded weight bound 5 (15 728 monomials).
    contraction = Contraction(Difinfty())
    checked, bad = contraction.verify(max_arity=5, max_degree=3,
                                      max_weight=5)
    _report(3, f"diff H + H diff = id on all {checked} monomials with"
               " arity <= 5, degree 1..3, weight <= 5, exact",
            bad == [] and checked == 15728)


def test_acceptance_04_spot_reproductions():
    op = Difinfty()
    contraction = Contraction(op)
    ok = op.diff(m_gen(3)) == el("(m2 _ (m2 _ _))") - el("(m2 (m2 _ _) _)")
    ok = ok and op.diff(d_gen(2)) == (
        el("(d1 (m2 _ _))") - el("(m2 (d1 _) _)") - el("(m2 _ (d1 _))")
        - el("(m2 (d1 _) (d1 _))").scale(LAMBDA))
    ok = ok and contraction.apply(el("(m2 (m2 _ _) _)")) == \
        el("(m3 _ _ _)").scale(-1)
    ok = ok and contraction.apply(el("(d1 (m2 _ _))")) == el("(d2 _ _)")
    for n in range(1, 8):
        if n >= 2:
            ok = ok and contraction.typical_info(m_gen(n + 1))[1] == -1
        ok = ok and contraction.typical_info(d_gen(n + 1))[1] == 1
    _report(4, "diff(m_3), diff(d_2) verbatim; H(m2 o1 m2) = -m3;"
               " H(d1 o1 m2) = d2; leading coefficients -1/+1 for n <= 7",
            ok)


def test_acceptance_05_linfinity_jacobi():
    from operad_forge.linf import jacobi_check

    configs = [
        ("dim 1, degree 0", GradedSpace({0: 1})),
        ("dim 2, degree 0", GradedSpace({0: 2})),
        ("two degrees", GradedSpace({0: 1, 1: 1})),
    ]
    ok = True
    for label, space in configs:
        for n in range(1, 6):
            result = jacobi_check(space, LAMBDA, n, trials=64, seed=7,
                                  max_arity=3)
            if result["failures"]:
                ok = False
                print(f"  jacobi failure in {label}, width {n}:"
                      f" {result['failures'][:2]}")
    _report(5, "generalized Jacobi exact for widths 1..5, dims 1 and 2 in"
               " degree 0 plus a two-degree space, arity support <= 3,"
               " 64 seeded tuples per configuration, generic weight", ok)


def _jacobi_on_every_basis_tuple(space, max_arity, widths):
    """Graded symmetry on every ordered tuple of basis components (one
    entry 1, arity <= max_arity) and Jacobi on every multiset of them, at
    the given widths.  Every l_n is multilinear and adjacent transpositions
    generate S_n, so this proves both identities on the whole range.
    Returns the number of multisets."""
    from operad_forge.hom_complex import MultiMap
    from operad_forge.linf import (ALG, DO, CdaElement,
                                   antisymmetry_residual, jacobi_residual)

    sv = space.shift(1)
    basis = []
    for n in range(1, max_arity + 1):
        for flag, target in ((ALG, sv), (DO, space)):
            for key in itertools.product(sv.basis(), repeat=n):
                in_deg = sum(sv.degree_of(i) for i in key)
                for b in target.basis():
                    mm = MultiMap(sv, target, n,
                                  target.degree_of(b) - in_deg,
                                  {key: {b: Coefficient.one()}})
                    basis.append(CdaElement(space, {(n, flag): mm}))
    multisets = 0
    for width in widths:
        for args in itertools.product(basis, repeat=width):
            for i in range(width - 1):
                sigma = list(range(width))
                sigma[i], sigma[i + 1] = i + 1, i
                assert antisymmetry_residual(space, LAMBDA, args,
                                             sigma).is_zero()
        for args in itertools.combinations_with_replacement(basis, width):
            multisets += 1
            assert jacobi_residual(space, LAMBDA, args).is_zero()
    return multisets


def test_linfinity_jacobi_on_every_dim_one_basis_tuple():
    # Beside acceptance 05: on V = Q in degree 0 with arity support <= 3
    # the basis components are one alg and one do map per arity (6 in
    # all), widths 2..5.
    assert _jacobi_on_every_basis_tuple(GradedSpace({0: 1}), 3,
                                        range(2, 6)) == 455


def test_linfinity_jacobi_on_every_two_degree_basis_tuple():
    # V = Q + Q[-1] with arity support <= 2: 24 basis components, width 3
    assert _jacobi_on_every_basis_tuple(GradedSpace({0: 1, 1: 1}), 2,
                                        [3]) == 2600


def test_acceptance_06_mc_iff_axioms():
    ok = True
    # dim 1: the full structure-constant grid over {-1,0,1}
    for lam in (Fraction(0), Fraction(1), Fraction(1, 2)):
        for c in (-1, 0, 1):
            for t in (-1, 0, 1):
                alg = DifAlgebraData.build([[[c]]], [[t]], lam)
                if mc_residual_of_algebra(alg).is_zero() != \
                        is_differential_algebra(alg):
                    ok = False
    # dim 2: seeded random sample, plus engineered honest algebras
    rng = random.Random(2024)
    samples = []
    for _ in range(500):
        mult = [[[rng.choice([-1, 0, 1]) for _ in range(2)]
                 for _ in range(2)] for _ in range(2)]
        d = [[rng.choice([-1, 0, 1]) for _ in range(2)] for _ in range(2)]
        samples.append(DifAlgebraData.build(mult, d, Fraction(1)))
    samples.append(DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        [[-1, 0], [0, -1]], Fraction(1)))
    samples.append(DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        [[0, 0], [0, 0]], Fraction(1)))
    both_true = 0
    for alg in samples:
        axioms = is_differential_algebra(alg)
        if mc_residual_of_algebra(alg).is_zero() != axioms:
            ok = False
        if axioms:
            both_true += 1
    _report(6, "Maurer-Cartan residual vanishes iff associativity and the"
               f" weight rule hold (dim-1 grid x 3 weights; {len(samples)}"
               f" dim-2 samples incl. {both_true} honest algebras), exact",
            ok and both_true >= 2)


def test_acceptance_07_twisted_complex_comparisons():
    from operad_forge.compare import (
        da_twist_mismatches,
        do_bracket_mismatches,
        do_twist_mismatches,
    )
    from operad_forge.compare import multimap_to_table, random_plain_map
    from operad_forge.hom_complex import iso2_down, iso2_up
    from operad_forge.linf import CdoDgla, remark_bracket

    algebras = [
        DifAlgebraData.build([[[1]]], [[-1]], 1),
        DifAlgebraData.build([[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                             [[-1, 0], [0, -1]], 1),
    ]
    ok = True
    for alg in algebras:
        ok = ok and da_twist_mismatches(alg, 4) == []
        ok = ok and do_twist_mismatches(alg, 4) == []
        # the displayed operator bracket where it is exact (equal parity;
        # these are the instances the minimal-model comparison uses)...
        rng = random.Random(5)
        dgla = CdoDgla(alg)
        for n, k in ((1, 1), (2, 2), (1, 3), (3, 3)):
            for _ in range(3):
                f = random_plain_map(rng, alg, n)
                g = random_plain_map(rng, alg, k)
                lhs = iso2_down(dgla.l2(iso2_up(f), iso2_up(g)))
                if multimap_to_table(lhs) != \
                        multimap_to_table(remark_bracket(alg, f, g)):
                    ok = False
        # ... and the Koszul-corrected transported form everywhere
        ok = ok and do_bracket_mismatches(alg, 3, corrected=True) == []
    _report(7, "twisted width-1 bracket = translation of minus the total"
               " differential and (l1^beta)^tau = dDO at levels <= 4 on two"
               " algebras; operator bracket formula matches the twisted"
               " width-2 bracket (displayed form at equal parity, corrected"
               " form at all arities <= 3), exact", ok)


def test_acceptance_08_cohomology_oracle():
    from operad_forge.cochain import CochainComplexes, rank_dense_oracle

    alg = DifAlgebraData.build([[[0]]], [[0]], 0)
    cx = CochainComplexes(alg)
    dims = cx.cohomology_ranks(4)
    oracle = cx.cohomology_ranks(4, rank_fn=rank_dense_oracle)
    _report(8, "square-zero algebra with d = 0: total cohomology dims"
               f" {dims} = [1,2,2,2,2], dense oracle agrees",
            dims == [1, 2, 2, 2, 2] and oracle == dims)


def test_acceptance_09_hda_correspondence():
    from operad_forge.hda import (
        _leibniz_rhs_terms,
        embed_algebra,
        eta_sign_exponent,
        mc_equivalence_report,
        random_structure,
    )
    from oracles import eta_sign_exponent_long

    ok = True
    rng = random.Random(99)
    structures = []
    for _ in range(94):
        dims = rng.choice([{0: 1}, {0: 2}, {0: 1, 1: 1}])
        lam = rng.choice([Coefficient.rational(1), LAMBDA])
        structures.append(random_structure(rng, dims, 4, lam,
                                           density=rng.choice([0.3, 0.6])))
    structures.append(embed_algebra([[[1]]], [[-1]], Coefficient.rational(1)))
    structures.append(embed_algebra([[[1]]], [[0]], LAMBDA))
    structures.append(embed_algebra([[[0]]], [[1]], Coefficient.rational(0)))
    structures.append(embed_algebra(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]],
        Coefficient.rational(1)))
    from operad_forge.hda import HdaStructure

    structures.append(HdaStructure(GradedSpace({0: 2}), LAMBDA, 4))
    structures.append(HdaStructure(GradedSpace({0: 1, 1: 1}), LAMBDA, 4))
    assert len(structures) >= 100
    for s in structures:
        if not all(r["match"] for r in mc_equivalence_report(s)):
            ok = False
    eta_ok = True
    tuples = 0
    for n in range(1, 7):
        for q, p, ls, js in _leibniz_rhs_terms(n):
            tuples += 1
            if (eta_sign_exponent(ls, js)
                    - eta_sign_exponent_long(n, p, ls, js)) % 2:
                eta_ok = False
    _report(9, f"on {len(structures)} seeded structures (dim V <= 2, arity"
               " bound 4) the two identity families vanish iff the"
               " Maurer-Cartan components do, per arity; the two eta-sign"
               f" expressions agree on all {tuples} tuples with n <= 6",
            ok and eta_ok)


def test_acceptance_10_pre_jacobi_generator_triples():
    gens = [d_gen(1), m_gen(2), d_gen(2), m_gen(3), d_gen(3)]
    ok = True
    for f, g, h in itertools.product(gens, repeat=3):
        if not pre_jacobi_check(OperadElement.generator(f),
                                [OperadElement.generator(g)],
                                [OperadElement.generator(h)]):
            ok = False
            print(f"  pre-Jacobi fails on ({f.symbol}, {g.symbol},"
                  f" {h.symbol})")
    _report(10, "brace pre-Jacobi identity exact on all 125 generator"
                " triples with arities <= 3", ok)
