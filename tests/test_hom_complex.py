import itertools
import random

import pytest

from operad_forge.coeffs import Coefficient
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
    assert out.table == {(0, 0): {0: Coefficient.rational(3)}}


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
    assert out1.table[(0, 0, 0)] == {0: ONE}
    assert out2.table[(0, 0, 0)] == {0: -ONE}   # k passes the degree-1 slot


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
    assert f.scale(-1) == -f and f.scale(-ONE).table == {
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
    assert out["g"].table == {(0, 0): {0: Coefficient.rational(4)}}
    assert sum_maps([(1, {"f": f})])["f"] is f
    assert sum_maps([(1, {"f": f}), (-1, {"f": f}), (1, {"f": f})]) == \
        {"f": f}
    assert sum_maps([(1, {"f": f}), (1, {"f": f})])["f"] == f.scale(2)
    assert f.table == {(0,): {1: ONE}, (1,): {0: ONE}}
