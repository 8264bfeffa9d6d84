"""Item (iii) of the L-infinity bracket against its m!-ordering form.

`linf._component_bracket` sums the orderings of item (iii) in one pass over
the placed subsets of maps (`hom_complex.Walk`).  The oracle here
reads the displayed formula literally: one `brace_sum` term per ordering
sigma, each with its own chi(sigma; g*) from `coeffs.chi_sign`, the sign of
item (iv) and L^(m-1).
"""

import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import LAMBDA, Coefficient, chi_sign
from operad_forge.hom_complex import (GradedSpace, brace_sum,
                                      desuspend_target, hom_brace,
                                      suspend_target)
from operad_forge.linf import ALG, DO, _component_bracket, random_multimap
from oracles import assert_raw_normal_form

SPACES = (GradedSpace({0: 2}), GradedSpace({0: 1, 1: 1}),
          GradedSpace({-1: 1, 0: 1}))
WEIGHTS = (LAMBDA, Coefficient.rational(Fraction(1, 2)))


def ordering_bracket(lam, comps):
    """Item (iii) of l_{m+1} with the alg component anywhere: the sum over
    every ordering sigma of S_m as a separate brace term."""
    flags = [f for f, _ in comps]
    k = flags.index(ALG)
    sf = comps[k][1]
    gs = [mm for f, mm in comps if f == DO]
    gdeg = [g.degree for g in gs]
    m = len(gs)
    exp_iv = sf.degree * sum(gdeg[:k]) + k
    lam_pow = Coefficient.one()
    for _ in range(m - 1):
        lam_pow = lam_pow * lam
    sgs = [suspend_target(g) for g in gs]
    terms = []
    for sigma in itertools.permutations(range(m)):
        chi = chi_sign(gdeg, sigma)
        exp = exp_iv + m * sf.degree + sum(
            (m - 1 - j) * gdeg[sigma[j]] for j in range(m - 1))
        sign = -chi if exp % 2 else chi
        terms.append((lam_pow if sign > 0 else -lam_pow, sf,
                      [sgs[s] for s in sigma]))
    total = brace_sum(terms)
    return None if total.is_zero() else (DO, desuspend_target(total))


def random_part(rng, space, flag, arity, density=0.7):
    """A nonzero alg (sV^n -> sV) or do (sV^n -> V) map of a random degree
    that some input tuple can reach."""
    s_space = space.shift(1)
    target = s_space if flag == ALG else space
    degrees = sorted({target.degree_of(b) - sum(key)
                      for key in itertools.product(s_space.degrees,
                                                   repeat=arity)
                      for b in target.basis()})
    while True:
        mm = random_multimap(rng, s_space, target, arity,
                             rng.choice(degrees), density)
        if not mm.is_zero():
            return mm


def assert_same(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0] == DO
        assert got[1] == want[1]
        assert_raw_normal_form(got[1])


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_one_pass_matches_every_ordering(space, lam, m):
    rng = random.Random(f"{space}/{lam}/{m}")
    nonzero = 0
    for trial in range(4):
        gs = [random_part(rng, space, DO, rng.randint(1, 2))
              for _ in range(m)]
        if trial % 2:
            # the alpha^i case: one map object in several slots
            gs[1:3] = [gs[0]] * len(gs[1:3])
        sf = random_part(rng, space, ALG, m + trial % 2)
        comps = [(DO, g) for g in gs]
        comps.insert(rng.randint(0, m), (ALG, sf))
        got = _component_bracket(space, lam, comps)
        assert_same(got, ordering_bracket(lam, comps))
        nonzero += got is not None
    assert nonzero


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_too_few_inputs_give_zero(space):
    rng = random.Random(3)
    gs = [random_part(rng, space, DO, 1) for _ in range(3)]
    sf = random_part(rng, space, ALG, 2)
    comps = [(ALG, sf)] + [(DO, g) for g in gs]
    assert _component_bracket(space, LAMBDA, comps) is None
    assert ordering_bracket(LAMBDA, comps) is None


def even_part(rng, space, arity):
    while True:
        g = random_part(rng, space, DO, arity)
        if g.degree % 2 == 0:
            return g


@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_cancelled_orderings_leave_no_entry(lam):
    # swapping two equal even maps flips chi and keeps the rest of the
    # sign, so the orderings cancel in pairs
    space = SPACES[0]
    rng = random.Random(7)
    g = even_part(rng, space, 2)
    sf = random_part(rng, space, ALG, 3)
    sg = suspend_target(g)
    assert not hom_brace(sf, [sg, sg]).is_zero()
    comps = [(ALG, sf), (DO, g), (DO, g)]
    assert _component_bracket(space, lam, comps) is None
    assert ordering_bracket(lam, comps) is None
    # against g + e only the orderings with e are left
    e = even_part(rng, space, 2)
    comps = [(DO, g), (ALG, sf), (DO, g + e)]
    got = _component_bracket(space, lam, comps)
    assert got is not None
    assert_same(got, ordering_bracket(lam, comps))


# maps scaled by these have cells that mix powers of L, so the walk's
# states split by power and merge again; 1/2 - L makes integral products
# of Fractions, which must come out as ints
MIXED_SCALES = (Coefficient({0: 1, 1: -1}), Coefficient({0: 1, 2: 1}),
                Coefficient({0: Fraction(1, 2), 1: -1}))


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
@pytest.mark.parametrize("m", [2, 3])
def test_orderings_of_maps_with_mixed_powers_of_l(space, lam, m):
    rng = random.Random(f"mixed/{space}/{lam}/{m}")
    nonzero = 0
    for trial in range(4):
        gs = [random_part(rng, space, DO, rng.randint(1, 2)).scale(
            MIXED_SCALES[(trial + j) % 3]) for j in range(m)]
        sf = random_part(rng, space, ALG, m + trial % 2)
        comps = [(DO, g) for g in gs]
        comps.insert(rng.randint(0, m), (ALG, sf))
        got = _component_bracket(space, lam, comps)
        assert_same(got, ordering_bracket(lam, comps))
        if got is None:
            continue
        nonzero += 1
        assert any(len(c) > 1 for row in got[1].table.values()
                   for c in row.values())
    assert nonzero
