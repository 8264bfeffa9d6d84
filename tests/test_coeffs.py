import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from operad_forge.coeffs import (
    Coefficient,
    LAMBDA,
    add_into,
    chi_sign,
    format_coefficient,
    format_weight,
    koszul_sign,
    normalize,
    parse_coefficient,
    parse_weight,
    shuffles,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
polys = st.dictionaries(st.integers(min_value=0, max_value=5), rationals,
                        max_size=4).map(Coefficient)


def test_monomial_product():
    assert LAMBDA * LAMBDA == Coefficient({2: 1})


def test_additive_inverse():
    one_plus = Coefficient({0: 1, 1: 1})
    assert (one_plus + (-one_plus)).is_zero()


def test_hand_multiplication_cross_checked_at_5():
    a = Coefficient({1: Fraction(2, 3), 0: -1})     # 2/3 L - 1
    b = Coefficient.rational(3)
    prod = a * b
    assert prod == Coefficient({1: 2, 0: -3})
    assert prod.specialize(5) == a.specialize(5) * b.specialize(5)


def test_specialize_examples():
    assert Coefficient({2: 1}).specialize(Fraction(1, 2)) == Fraction(1, 4)
    assert Coefficient.zero().specialize(7) == 0
    assert Coefficient({1: 1, 0: -1}).specialize(1) == 0


@given(polys, polys, rationals)
def test_specialize_is_multiplicative(a, b, t):
    assert (a * b).specialize(t) == a.specialize(t) * b.specialize(t)


@given(polys, polys, rationals)
def test_specialize_is_additive(a, b, t):
    assert (a + b).specialize(t) == a.specialize(t) + b.specialize(t)


@given(polys)
def test_coefficient_roundtrip(c):
    assert parse_coefficient(format_coefficient(c)) == c


def test_coefficient_grammar_examples():
    assert format_coefficient(parse_coefficient("3/2*L^2 - 1")) == "3/2*L^2 - 1"
    assert parse_coefficient("L") == LAMBDA
    assert parse_coefficient("-2") == Coefficient.rational(-2)
    assert parse_coefficient("0").is_zero()


def test_powers():
    one = Coefficient.one()
    assert LAMBDA ** 0 == one and Coefficient.zero() ** 0 == one
    assert (one + LAMBDA) ** 3 == parse_coefficient("L^3 + 3*L^2 + 3*L + 1")
    assert Coefficient.rational(Fraction(-2, 3)) ** 3 == \
        Coefficient.rational(Fraction(-8, 27))
    with pytest.raises(ValueError):
        LAMBDA ** -1


def test_weight_spec_roundtrip():
    for spec in ("generic", "0", "1", "-1/2"):
        assert format_weight(parse_weight(spec)) == spec
    assert parse_weight("generic") == LAMBDA
    for lam in (Coefficient.lam(1, 2), Coefficient.lam(2),
                LAMBDA + Coefficient.one()):
        with pytest.raises(ValueError):
            format_weight(lam)


def test_normalize_keeps_integers_and_refuses_inexact_scalars():
    for v, want in ((3, 3), (Fraction(6, 3), 2), ("-4/2", -2), (" 2 ", 2),
                    (Fraction(1, 2), Fraction(1, 2)), ("3/6", Fraction(1, 2))):
        got = normalize(v)
        assert got == want and type(got) is type(want)
    for v in (0.5, 1.0, True, False, None, "1/0", "x", [1], 1j):
        with pytest.raises(ValueError):
            normalize(v)
        with pytest.raises(ValueError):
            parse_weight(v)
        with pytest.raises(ValueError):
            Coefficient({0: v})


def test_rational_normal_form():
    c = Coefficient({0: Fraction(4, 6)})
    (value,) = c.coeffs.values()
    assert Fraction(value) == Fraction(2, 3)
    total = Coefficient({0: Fraction(1, 3)}) + Coefficient({0: Fraction(2, 3)})
    assert total.coeffs == {0: 1}


def test_koszul_sign_examples():
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([0, 5], (1, 0)) == 1
    # cycle as two adjacent swaps of odd factors
    assert koszul_sign([1, 1, 1], (1, 2, 0)) == 1


def test_chi_sign_examples():
    assert chi_sign([1, 1], (1, 0)) == 1
    assert chi_sign([0, 0], (1, 0)) == -1
    assert chi_sign([3, 1, 4], (0, 1, 2)) == 1


def test_koszul_sign_size_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([1, 2], (0, 1, 2))


def _compose(sigma, tau):
    # applying tau then sigma: z_i = (x after tau)_{sigma(i)} = x_{tau[sigma[i]]}
    return tuple(tau[s] for s in sigma)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_koszul_sign_antihomomorphism(n):
    degree_vectors = [
        [0] * n,
        [1] * n,
        list(itertools.islice(itertools.cycle([0, 1, 2]), n)),
        list(itertools.islice(itertools.cycle([2, 1]), n)),
    ]
    for degrees in degree_vectors:
        for tau in itertools.permutations(range(n)):
            permuted = [degrees[t] for t in tau]
            for sigma in itertools.permutations(range(n)):
                lhs = koszul_sign(degrees, _compose(sigma, tau))
                rhs = koszul_sign(permuted, sigma) * koszul_sign(degrees, tau)
                assert lhs == rhs


def test_shuffles():
    got = set(shuffles(2, 1))
    assert got == {(0, 1, 2), (0, 2, 1), (1, 2, 0)}
    assert all(s[:2] == tuple(sorted(s[:2])) for s in got)


def _has_zero(acc):
    for v in acc.values():
        if isinstance(v, dict):
            if not v or _has_zero(v):
                return True
        elif not v:
            return True
    return False


@given(st.lists(st.tuples(st.integers(0, 3), polys), max_size=12))
def test_add_into_never_leaves_a_zero(pairs):
    acc = {}
    for key, c in pairs:
        add_into(acc, key, c)
        assert not _has_zero(acc)
    want = {}
    for key, c in pairs:
        want[key] = want.get(key, Coefficient.zero()) + c
    assert acc == {k: c for k, c in want.items() if c}


def test_add_into_full_cancellation_of_rows_and_tables():
    one, lam = Coefficient.one(), LAMBDA
    row = {0: one, 1: lam}
    acc = {}
    add_into(acc, "k", row)
    assert acc == {"k": {0: one, 1: lam}} and acc["k"] is not row
    add_into(acc, "k", {0: -one})
    assert acc == {"k": {1: lam}} and row == {0: one, 1: lam}
    add_into(acc, "k", {1: -lam})
    assert acc == {}
    table = {(0,): {0: one}, (1,): {2: lam}}
    add_into(acc, "t", table)
    add_into(acc, "t", {(0,): {0: -one}, (1,): {2: -lam}})
    assert acc == {}
    add_into(acc, "z", Coefficient.zero())
    add_into(acc, "r", {0: Coefficient.zero()})
    assert acc == {}


def test_add_into_multimaps():
    from operad_forge.hom_complex import GradedSpace, MultiMap

    v = GradedSpace({0: 1})
    f = MultiMap(v, v, 1, 0, {(0,): {0: LAMBDA}})
    acc = {}
    add_into(acc, 1, f)
    add_into(acc, 1, f)
    assert acc[1].evaluate((0,)) == {0: LAMBDA * Coefficient.rational(2)}
    assert f.evaluate((0,)) == {0: LAMBDA}
    add_into(acc, 1, -f.scale(2))
    assert acc == {}
