import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import LAMBDA, Coefficient
from operad_forge.hom_complex import (
    GradedSpace,
    MultiMap,
    compose_at,
    compose_full,
    desuspend_target,
    hom_brace,
    hom_gerstenhaber,
    iso1_down,
    iso1_up,
    iso2_down,
    iso2_up,
    sum_maps,
    suspend_target,
)
from operad_forge.linf import random_multimap
from oracles import values

ONE = Coefficient.one()


def test_graded_space_basics():
    v = GradedSpace({0: 2, 1: 1})
    assert v.dim() == 3
    assert [v.degree_of(i) for i in v.basis()] == [0, 0, 1]
    assert v.label(1) == "0:1" and v.label(2) == "1:0"
    assert v.id_of_label("1:0") == 2
    with pytest.raises(ValueError):
        v.id_of_label("2:0")
    assert v.shift(1).dims == {1: 2, 2: 1}
    assert GradedSpace({0: 1, 1: 0}).dims == {0: 1}
    with pytest.raises(ValueError):
        GradedSpace({0: 1, 1: -1})


def test_multimap_degree_validation():
    v = GradedSpace({0: 1, 1: 1})
    with pytest.raises(ValueError):
        MultiMap(v, v, 1, 0, {(0,): {1: ONE}})
    mm = MultiMap(v, v, 1, 1, {(0,): {1: ONE}})
    assert not mm.is_zero()


def test_zero_pruning_and_equality():
    v = GradedSpace({0: 2})
    a = MultiMap(v, v, 1, 0, {(0,): {0: ONE}})
    b = MultiMap(v, v, 1, 0, {(0,): {0: -ONE}})
    assert (a + b).is_zero()
    assert a + b == MultiMap.zero(v, v, 1, 0)


def test_compose_at_degree_zero_is_substitution():
    v = GradedSpace({0: 1})
    f = MultiMap(v, v, 2, 0, {(0, 0): {0: ONE}})
    g = MultiMap(v, v, 1, 0, {(0,): {0: Coefficient.rational(3)}})
    out = compose_at(f, 2, g)
    assert values(out) == {(0, 0): {0: Coefficient.rational(3)}}


def test_compose_koszul_sign():
    # inserting an odd map after an odd argument flips the sign
    v = GradedSpace({1: 1})          # one degree-1 basis element x
    f = MultiMap(v, v, 2, -1, {(0, 0): {0: ONE}})
    g = MultiMap(v, v, 1, 0, {(0,): {0: ONE}})
    h_odd = MultiMap(v, GradedSpace({1: 1}), 1, 0, {(0,): {0: ONE}})
    # compare slot 1 vs slot 2 for an odd-degree inner map
    k = MultiMap(v, v, 2, -1, {(0, 0): {0: ONE}})
    out1 = compose_at(f, 1, k)
    out2 = compose_at(f, 2, k)
    assert out1.evaluate((0, 0, 0)) == {0: ONE}
    assert out2.evaluate((0, 0, 0)) == {0: -ONE}   # k passes the degree-1 slot


def test_compose_full_matches_iterated_compose():
    rng = random.Random(1)
    v = GradedSpace({0: 1, 1: 1})
    sv = v.shift(1)
    for _ in range(25):
        f = random_multimap(rng, sv, sv, 3, rng.choice([-2, -1, 0]))
        g = random_multimap(rng, sv, sv, rng.choice([1, 2]),
                            rng.choice([-1, 0]))
        h = random_multimap(rng, sv, sv, rng.choice([1, 2]),
                            rng.choice([-1, 0]))
        slots = [g, None, h]
        one_shot = compose_full(f, slots)
        step = compose_at(f, 1, g)
        step = compose_at(step, g.arity + 2, h)
        assert one_shot == step


def test_brace_single_is_sum_of_insertions():
    rng = random.Random(2)
    v = GradedSpace({0: 2})
    sv = v.shift(1)
    f = random_multimap(rng, sv, sv, 2, -1)
    g = random_multimap(rng, sv, sv, 2, -1)
    assert hom_brace(f, [g]) == compose_at(f, 1, g) + compose_at(f, 2, g)


def test_brace_overflow_is_zero():
    v = GradedSpace({0: 1})
    sv = v.shift(1)
    f = MultiMap(sv, sv, 1, 0, {(0,): {0: ONE}})
    assert hom_brace(f, [f, f]).is_zero()


def test_gerstenhaber_antisymmetry_and_jacobi():
    rng = random.Random(4)
    for dims in ({0: 1}, {0: 2}):
        v = GradedSpace(dims)
        sv = v.shift(1)

        def rand():
            n = rng.choice([1, 2, 3])
            return random_multimap(rng, sv, sv, n, 1 - n)

        for _ in range(10):
            f, g, h = rand(), rand(), rand()
            sign_fg = -1 if (f.degree * g.degree) % 2 == 0 else 1
            assert hom_gerstenhaber(f, g) == \
                hom_gerstenhaber(g, f).scale(sign_fg)
            # graded Jacobi
            a = hom_gerstenhaber(f, hom_gerstenhaber(g, h))
            b = hom_gerstenhaber(hom_gerstenhaber(f, g), h)
            c = hom_gerstenhaber(g, hom_gerstenhaber(f, h))
            if (f.degree * g.degree) % 2:
                c = -c
            assert a == b + c


def test_suspension_translations_are_inverse():
    rng = random.Random(6)
    v = GradedSpace({0: 2, 1: 1})
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        f = random_multimap(rng, v, v, n, rng.choice([-1, 0, 1]))
        assert iso1_down(iso1_up(f)) == f
        assert iso2_down(iso2_up(f)) == f
        up = iso1_up(f)
        assert up.degree == f.degree + 1 - n
        assert iso2_up(f).degree == f.degree - n


def test_multiplication_suspension_sign_reproduced():
    # the literal composite -s o mu o (s^-1 (x) s^-1) equals iso1_up(mu)
    v = GradedSpace({0: 2})
    sv = v.shift(1)
    rng = random.Random(8)
    mu = random_multimap(rng, v, v, 2, 0, density=0.9)
    m = iso1_up(mu)
    for i, j in itertools.product(v.basis(), repeat=2):
        # (s^-1 (x) s^-1)(s e_i (x) s e_j) = -(e_i (x) e_j)
        want = {b: -c for b, c in mu.evaluate((i, j)).items()}
        want = {b: -c for b, c in want.items()}  # then -s o ...
        got = {b: -c for b, c in m.evaluate((i, j)).items()}
        # m(se_i, se_j) = s mu(e_i, e_j): -s mu (-(ei,ej)) = +s mu(ei,ej)
        assert m.evaluate((i, j)) == mu.evaluate((i, j))


def test_suspend_desuspend_target_roundtrip():
    v = GradedSpace({0: 1, 2: 1})
    sv = v.shift(1)
    rng = random.Random(9)
    g = random_multimap(rng, sv, v, 2, -2)
    assert desuspend_target(suspend_target(g)) == g
    assert suspend_target(g).degree == g.degree + 1


def test_unit_scaling_and_suspension_share_or_negate():
    v = GradedSpace({0: 1, 1: 1})
    f = MultiMap(v, v, 1, 1, {(0,): {1: Coefficient.lam()}})
    assert f.scale(1) is f and f.scale(ONE) is f
    assert f.scale(-1) == -f and values(f.scale(-ONE)) == {
        (0,): {1: -Coefficient.lam()}}
    assert f.scale(0).is_zero()
    s = suspend_target(f)
    assert s.table is f.table and (s.degree, s.target) == (2, v.shift(1))
    assert desuspend_target(s) == f


def test_sum_maps_keeps_lone_maps_and_drops_cancelled_keys():
    v = GradedSpace({0: 2})
    f = MultiMap(v, v, 1, 0, {(0,): {1: ONE}, (1,): {0: ONE}})
    g = MultiMap(v, v, 2, 0, {(0, 0): {0: ONE}})
    out = sum_maps([(1, {"f": f, "g": g}), (-1, {"f": f}),
                    (Coefficient.rational(3), {"g": g})])
    assert set(out) == {"g"}
    assert values(out["g"]) == {(0, 0): {0: Coefficient.rational(4)}}
    assert sum_maps([(1, {"f": f})])["f"] == f
    assert sum_maps([(1, {"f": f}), (-1, {"f": f}), (1, {"f": f})]) == \
        {"f": f}
    assert sum_maps([(1, {"f": f}), (1, {"f": f})])["f"] == f.scale(2)
    assert values(f) == {(0,): {1: ONE}, (1,): {0: ONE}}


def _operad_elements():
    from operad_forge.dif_operads import d_gen, m_gen
    from operad_forge.free_operad import OperadElement, partial_compose

    m2 = OperadElement.generator(m_gen(2))
    d1 = OperadElement.generator(d_gen(1))
    md1, md2 = partial_compose(m2, 1, d1), partial_compose(m2, 2, d1)
    return (m2 + md1.scale(LAMBDA), md1.scale(2) - md2 - m2), ()


def _multimaps():
    v, rng = GradedSpace({0: 2}), random.Random(11)
    x, y = (random_multimap(rng, v, v, 2, 0) for _ in range(2))
    v1 = GradedSpace({0: 1})
    # a zero map is refused too when its source or arity differs
    return (x, y), (random_multimap(rng, v1, v, 2, 0),
                    MultiMap.zero(v1, v, 3, 0))


def _cda_elements():
    from operad_forge.linf import ALG, DO, CdaElement

    rng = random.Random(12)

    def element(space):
        sv = space.shift(1)
        return CdaElement(space, {
            (2, ALG): random_multimap(rng, sv, sv, 2, -1),
            (1, DO): random_multimap(rng, sv, space, 1, -1)})

    v, v1 = GradedSpace({0: 2}), GradedSpace({0: 1})
    # keys apart from x's, so that no two maps meet in the sum
    other = CdaElement(v1, {(1, ALG): random_multimap(
        rng, v1.shift(1), v1.shift(1), 1, 0, density=1.0)})
    return (element(v), element(v)), (other,)


def _conv_elements():
    from operad_forge.convolution import from_cda

    (x, y), (other,) = _cda_elements()
    return (from_cda(x), from_cda(y)), (from_cda(other),)


def _coefficients():
    return (Coefficient({0: 1, 2: Fraction(-1, 2)}),
            Coefficient({1: 3, 2: Fraction(1, 3)})), ()


@pytest.mark.parametrize("make", [_coefficients, _operad_elements,
                                  _multimaps, _cda_elements, _conv_elements])
def test_sparse_types_share_one_sum_protocol(make):
    """+, -, negation and scale of each sparse type agree with its one
    sum, a zero scalar gives zero, and the families refuse mixed spaces."""
    (x, y), others = make()
    assert not x.is_zero() and not y.is_zero()
    assert x + y == x._sum([(1, x), (1, y)])
    assert x - y == x._sum([(1, x), (-1, y)])
    assert -x == x._sum([(-1, x)])
    assert x + y != x
    assert x.scale(1) is x and x.scale(ONE) is x
    assert x.scale(-1) == -x and -(-x) == x
    assert x.scale(0).is_zero() and (x - x).is_zero()
    assert x._sum([(0, x)]).is_zero()
    assert x.scale(LAMBDA) == x._sum([(LAMBDA, x)])
    assert (x + y).scale(LAMBDA) == x._sum([(LAMBDA, x), (LAMBDA, y)])
    assert (x.scale(2) - y).scale(3) == x.scale(6) - y - y - y
    for other in others:
        with pytest.raises(ValueError):
            x + other
        with pytest.raises(ValueError):
            x._sum([(1, x), (1, other)])


def test_coefficient_sum_normalizes_and_drops_zero_powers():
    half = Coefficient.rational(Fraction(1, 2))
    one = half + half
    assert one == ONE and type(one.constant_term()) is int
    x = Coefficient({0: 1, 1: Fraction(1, 2)})
    for lam_part in (x - ONE, x + Coefficient.rational(-1)):
        assert lam_part.coeffs == {1: Fraction(1, 2)}
    assert (x + LAMBDA.scale(Fraction(-1, 2))).coeffs == {0: 1}
    assert (x - x).coeffs == {} and x.scale(0).coeffs == {}
    assert x * LAMBDA == x.scale(LAMBDA) == LAMBDA * x
    assert x * 2 == x.scale(2) == 2 * x
