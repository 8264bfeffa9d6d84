import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.algebras import (
    DifAlgebraData,
    associativity_defects,
    is_differential_algebra,
)
from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.hom_complex import (
    GradedSpace,
    MultiMap,
    compose_full,
    desuspend_target,
    hom_gerstenhaber,
    iso2_up,
    suspend_target,
)
from operad_forge.linf import (
    ALG,
    DO,
    CdaElement,
    CdoDgla,
    algebra_from_mc,
    antisymmetry_residual,
    cda_bracket,
    jacobi_check,
    jacobi_residual,
    mc_from_algebra,
    mc_residual,
    mc_residual_of_algebra,
    random_component,
    random_multimap,
    remark_bracket,
    transported_do_bracket,
    twisted_bracket,
    twisted_l1,
)

V1 = GradedSpace({0: 1})
V2 = GradedSpace({0: 2})
VG = GradedSpace({0: 1, 1: 1})


def alg_part(space, mm):
    return CdaElement(space, {(mm.arity, ALG): mm})


def do_part(space, mm):
    return CdaElement(space, {(mm.arity, DO): mm})


def test_l2_of_two_alg_parts_is_gerstenhaber():
    rng = random.Random(1)
    sv = V2.shift(1)
    f = random_multimap(rng, sv, sv, 2, -1)
    g = random_multimap(rng, sv, sv, 3, -2)
    out = cda_bracket(V2, LAMBDA, [alg_part(V2, f), alg_part(V2, g)])
    assert out.parts == {(4, ALG): hom_gerstenhaber(f, g)}


def test_l2_alg_do_reproduces_shifted_bracket():
    # -l_2(m (x) g) = s^-1 [m, sg] for the multiplication element
    alg = DifAlgebraData.build([[[1]]], [[0]], 1)
    space, alpha = mc_from_algebra(alg)
    m = alpha.parts[(2, ALG)]
    rng = random.Random(2)
    sv = space.shift(1)
    g = random_multimap(rng, sv, space, 1, -1, density=1.0)
    out = cda_bracket(space, LAMBDA, [alg_part(space, m), do_part(space, g)])
    want = desuspend_target(hom_gerstenhaber(m, suspend_target(g))).scale(-1)
    assert out == CdaElement(space, {(2, DO): want})
    assert not want.is_zero()


def test_l3_with_two_taus_matches_display():
    # l_3(m (x) tau (x) tau) = -2 L s^-1 (m o (s tau (x) s tau))
    alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
    space, alpha = mc_from_algebra(alg)
    m, tau = alpha.parts[(2, ALG)], alpha.parts[(1, DO)]
    lam = Coefficient.rational(1)
    out = cda_bracket(space, lam, [alg_part(space, m), do_part(space, tau),
                                   do_part(space, tau)])
    stau = suspend_target(tau)
    want = desuspend_target(compose_full(m, [stau, stau])).scale(-2)
    assert out.parts == {(2, DO): want}


def test_l4_with_two_alg_parts_vanishes():
    rng = random.Random(3)
    sv = V2.shift(1)
    a = alg_part(V2, random_multimap(rng, sv, sv, 2, -1))
    b = alg_part(V2, random_multimap(rng, sv, sv, 3, -2))
    g = do_part(V2, random_multimap(rng, sv, V2, 1, -1))
    h = do_part(V2, random_multimap(rng, sv, V2, 2, -2))
    assert cda_bracket(V2, LAMBDA, [a, b, g, h]).is_zero()


def test_l1_and_do_only_widths_vanish():
    rng = random.Random(4)
    g = random_component(rng, V2, DO)
    h = random_component(rng, V2, DO)
    assert cda_bracket(V2, LAMBDA, [g, h]).is_zero()
    assert cda_bracket(V2, LAMBDA, [g]).is_zero()


def test_generalized_antisymmetry():
    rng = random.Random(5)
    for _ in range(20):
        pattern = rng.choice([(ALG, ALG), (ALG, DO), (ALG, DO, DO)])
        args = [random_component(rng, V2, f) for f in pattern]
        if any(a is None for a in args):
            continue
        n = len(args)
        sigma = tuple(rng.sample(range(n), n))
        assert antisymmetry_residual(V2, LAMBDA, args, sigma).is_zero()


@pytest.mark.parametrize("space", [V1, V2, VG])
def test_jacobi_small_widths(space):
    for n in (1, 2, 3):
        result = jacobi_check(space, LAMBDA, n, trials=6, seed=7)
        assert result["failures"] == []


def test_jacobi_residual_explicit_dgla_case():
    # width 2 on alg parts only: graded Jacobi for the shifted bracket
    rng = random.Random(6)
    sv = V2.shift(1)
    args = [alg_part(V2, random_multimap(rng, sv, sv, n, 1 - n))
            for n in (2, 2, 3)]
    assert jacobi_residual(V2, LAMBDA, args).is_zero()


# -- Maurer-Cartan ----------------------------------------------------------

def test_mc_honest_differential_algebra():
    alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
    assert is_differential_algebra(alg)
    assert mc_residual_of_algebra(alg).is_zero()


def test_mc_zero_operator():
    alg = DifAlgebraData.build([[[1]]], [[0]], 1)
    assert mc_residual_of_algebra(alg).is_zero()


def test_mc_nonassociative_has_alg_residual():
    alg = DifAlgebraData.build(
        [[[0, 1], [0, 0]], [[1, 0], [0, 1]]],
        [[0, 0], [0, 0]], 1)
    assert associativity_defects(alg)
    residual = mc_residual_of_algebra(alg)
    # the associativity defect lives in the arity-3 algebra component
    assert any(flag == ALG for _, flag in residual.parts)
    assert all(flag == ALG for _, flag in residual.parts)


def test_mc_grid_dim1_matches_axiom_oracle():
    for lam in (Fraction(0), Fraction(1), Fraction(1, 2)):
        for c in (-1, 0, 1):
            for t in (-1, 0, 1):
                alg = DifAlgebraData.build([[[c]]], [[t]], lam)
                axioms = is_differential_algebra(alg)
                assert mc_residual_of_algebra(alg).is_zero() == axioms


def test_mc_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        mult = [[[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                 for _ in range(2)] for _ in range(2)]
        d = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
             for _ in range(2)]
        alg = DifAlgebraData.build(mult, d, Fraction(1, 3))
        space, alpha = mc_from_algebra(alg)
        assert algebra_from_mc(space, alpha, alg.lam) == alg


def test_mc_requires_degree_minus_one():
    rng = random.Random(9)
    sv = V1.shift(1)
    bad = alg_part(V1, MultiMap(sv, sv, 1, 0,
                                           {(0,): {0: Coefficient.one()}}))
    with pytest.raises(ValueError):
        mc_residual(V1, LAMBDA, bad)


# -- twisting ----------------------------------------------------------------

def test_twist_by_zero_is_plain_bracket():
    rng = random.Random(10)
    zero = CdaElement(V2)
    while True:
        args = [random_component(rng, V2, ALG), random_component(rng, V2, DO)]
        if all(a is not None for a in args):
            break
    assert twisted_bracket(V2, LAMBDA, zero, args) == \
        cda_bracket(V2, LAMBDA, args)


def test_twisted_l1_squares_to_zero():
    alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
    space, alpha = mc_from_algebra(alg)
    lam = Coefficient.rational(1)
    rng = random.Random(11)
    for _ in range(8):
        x = random_component(rng, space, rng.choice([ALG, DO]), max_arity=2)
        if x is None:
            continue
        once = twisted_l1(space, lam, alpha, x)
        if once.is_zero():
            continue
        assert twisted_l1(space, lam, alpha, once).is_zero()


def test_twist_restricted_to_do_vanishes_at_width_three():
    alg = DifAlgebraData.build([[[1]]], [[0]], 1)
    dgla = CdoDgla(alg)
    rng = random.Random(12)
    sv = dgla.space.shift(1)
    gs = [do_part(dgla.space,
                             random_multimap(rng, sv, dgla.space, n, -n))
          for n in (1, 1, 2)]
    out = twisted_bracket(dgla.space, dgla.lam, dgla.beta, gs)
    assert out.is_zero()


# -- the operator dg Lie algebra ---------------------------------------------

def test_cdo_mc_is_weighted_operator():
    alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
    dgla = CdoDgla(alg)
    from operad_forge.compare import table_to_multimap

    tau = iso2_up(table_to_multimap(alg, {(0,): (Fraction(-1),)}, 1))
    assert dgla.mc_residual_of(tau).is_zero()
    tau_bad = iso2_up(table_to_multimap(alg, {(0,): (Fraction(1),)}, 1))
    assert not dgla.mc_residual_of(tau_bad).is_zero()


def test_cdo_weight_zero_has_trivial_bracket():
    alg = DifAlgebraData.build([[[1]]], [[0]], 0)
    dgla = CdoDgla(alg)
    rng = random.Random(13)
    sv = dgla.space.shift(1)
    g = random_multimap(rng, sv, dgla.space, 1, -1, density=1.0)
    h = random_multimap(rng, sv, dgla.space, 2, -2, density=1.0)
    assert dgla.l2(g, h).is_zero()


def test_cdo_bracket_antisymmetry():
    alg = DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        [[-1, 0], [0, -1]], 1)
    dgla = CdoDgla(alg)
    rng = random.Random(14)
    sv = dgla.space.shift(1)
    for _ in range(10):
        n, k = rng.choice([1, 2]), rng.choice([1, 2])
        g = random_multimap(rng, sv, dgla.space, n, -n)
        h = random_multimap(rng, sv, dgla.space, k, -k)
        sign = -1 if ((-n) * (-k)) % 2 == 0 else 1
        assert dgla.l2(g, h) == dgla.l2(h, g).scale(sign)


def test_remark_and_transported_brackets_agree_on_equal_parity():
    from operad_forge.compare import table_to_multimap

    alg = DifAlgebraData.build([[[1]]], [[-1]], 1)
    rng = random.Random(15)
    for n, k in ((1, 1), (2, 2), (1, 3), (3, 1)):
        ftab = {key: (Fraction(rng.choice([-1, 1])),)
                for key in itertools.product(range(1), repeat=n)}
        gtab = {key: (Fraction(rng.choice([-1, 1])),)
                for key in itertools.product(range(1), repeat=k)}
        f = table_to_multimap(alg, ftab, n)
        g = table_to_multimap(alg, gtab, k)
        assert remark_bracket(alg, f, g) == transported_do_bracket(alg, f, g)
