"""Specializing a generic-weight result equals computing at that weight.

Every brace and bracket is polynomial in L, so evaluating a result computed
over Q[L] at L = q must give exactly what the same computation gives with
the rational weight q and inputs specialized at q; the same holds for the
resolution's differential, the contraction H and the cobar differential,
whose coefficients are polynomials in L too.  Neither route alone
would catch an error that treats some power of L differently from the
others (a dropped exponent, a misplaced L^(m-1), a sign tied to a power).
"""

import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.contraction import Contraction
from operad_forge.dif_operads import Difinfty, alphabet, enumerate_monomials
from operad_forge.free_operad import OperadElement
from operad_forge.hom_complex import (GradedSpace, MultiMap, compose_full,
                                      hom_brace)
from operad_forge.koszul_dual import CoopGenerator, cobar_differential
from operad_forge.linf import (
    ALG,
    DO,
    CdaElement,
    cda_bracket,
    jacobi_residual,
    mc_residual,
    twisted_l1,
)

QS = (0, 1, -1, 2, Fraction(1, 2))

ONE = Coefficient.one()
L = Coefficient.lam()
VALUES = (ONE, -ONE, L, ONE - L, L * L + Coefficient.rational(2),
          Coefficient.lam(2, Fraction(-1, 3)))


def spec_map(mm, q):
    return MultiMap(mm.source, mm.target, mm.arity, mm.degree,
                    {key: {b: Coefficient.rational(c.specialize(q))
                           for b, c in out.items()}
                     for key, out in mm.table.items()}, check=False)


def spec_operad(x, q):
    return OperadElement({t: Coefficient.rational(c.specialize(q))
                          for t, c in x.terms.items()})


def spec_elem(x, q):
    return CdaElement(x.space, {k: spec_map(mm, q)
                                for k, mm in x.parts.items()})


def random_map(rng, source, target, arity, degree, density=0.6):
    table = {}
    for key in itertools.product(source.basis(), repeat=arity):
        want = sum(source.degree_of(i) for i in key) + degree
        row = {b: rng.choice(VALUES) for b in target.basis()
               if target.degree_of(b) == want and rng.random() < density}
        if row:
            table[key] = row
    return MultiMap(source, target, arity, degree, table)


def component(rng, space, flag, arity, degree):
    s_space = space.shift(1)
    target = s_space if flag == ALG else space
    return CdaElement(space, {(arity, flag): random_map(
        rng, s_space, target, arity, degree, density=0.8)})


V2 = GradedSpace({0: 2})
VG = GradedSpace({0: 1, 1: 1})


@pytest.mark.parametrize("q", QS, ids=str)
def test_compose_full_and_brace(q):
    rng = random.Random(41)
    sv = GradedSpace({0: 2, 1: 1})
    for _ in range(6):
        f = random_map(rng, sv, sv, 3, rng.choice([-1, 0]))
        g = random_map(rng, sv, sv, 2, rng.choice([-1, 0]))
        h = random_map(rng, sv, sv, 1, rng.choice([-1, 1]))
        fq, gq, hq = spec_map(f, q), spec_map(g, q), spec_map(h, q)
        assert spec_map(compose_full(f, [g, None, h]), q) == \
            compose_full(fq, [gq, None, hq])
        assert spec_map(hom_brace(f, [h, g]), q) == hom_brace(fq, [hq, gq])
        assert spec_map(hom_brace(f, [g, h, h]), q) == \
            hom_brace(fq, [gq, hq, hq])


def _bracket_args(rng, space):
    sf = component(rng, space, ALG, 3, -2)
    sf2 = component(rng, space, ALG, 2, -1)
    g1 = component(rng, space, DO, 1, -1)
    g2 = component(rng, space, DO, 2, -2)
    return {
        "l2 alg-alg": [sf, sf2],
        "l2 alg-do": [sf2, g1],
        "l3": [g1, sf, g2],
        "l4": [sf, g1, g2, g1],
    }


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("space", [V2, VG], ids=["dim 2", "two degrees"])
def test_cda_brackets(space, q):
    rng = random.Random(42)
    lam_q = Coefficient.rational(q)
    nonzero = 0
    for name, args in _bracket_args(rng, space).items():
        generic = cda_bracket(space, LAMBDA, args)
        nonzero += not generic.is_zero()
        assert spec_elem(generic, q) == \
            cda_bracket(space, lam_q, [spec_elem(a, q) for a in args]), name
    assert nonzero == 4


@pytest.mark.parametrize("q", QS, ids=str)
def test_jacobi_mc_and_twisted_l1(q):
    rng = random.Random(43)
    space = V2
    lam_q = Coefficient.rational(q)
    # a degree -1 element that is not Maurer-Cartan, so residuals are nonzero
    alpha = (component(rng, space, ALG, 2, -1)
             + component(rng, space, DO, 1, -1))
    alpha_q = spec_elem(alpha, q)
    res = mc_residual(space, LAMBDA, alpha)
    assert not res.is_zero()
    assert spec_elem(res, q) == mc_residual(space, lam_q, alpha_q)
    x = component(rng, space, DO, 2, -2)
    tw = twisted_l1(space, LAMBDA, alpha, x)
    assert not tw.is_zero()
    assert spec_elem(tw, q) == twisted_l1(space, lam_q, alpha_q,
                                          spec_elem(x, q))
    args = [component(rng, space, ALG, 2, -1),
            component(rng, space, DO, 1, -1),
            component(rng, space, DO, 2, -2)]
    assert not any(a.is_zero() for a in args)
    assert spec_elem(jacobi_residual(space, LAMBDA, args), q) == \
        jacobi_residual(space, lam_q, [spec_elem(a, q) for a in args])


@pytest.mark.parametrize("q", QS, ids=str)
def test_resolution_differential_h_and_cobar(q):
    lam_q = Coefficient.rational(q)
    generic, at_q = Difinfty(LAMBDA), Difinfty(lam_q)
    for gen in alphabet(6):
        assert spec_operad(generic.diff(gen), q) == at_q.diff(gen), gen
    for n in range(1, 7):
        for kind in ("sm", "sd", "mt", "dt"):
            c = CoopGenerator(kind, n)
            if n == 1 and kind in ("sm", "mt"):
                continue     # the counit is not a cobar generator
            assert spec_operad(cobar_differential(c, LAMBDA), q) == \
                cobar_differential(c, lam_q), c
    h_generic, h_q = Contraction(generic), Contraction(at_q)
    effective = [t for t in enumerate_monomials(5, 3, min_degree=0,
                                                max_degree=3)
                 if h_generic.analyze_effective(t).is_effective]
    with_l = 0
    for t in random.Random(44).sample(effective, 60):
        h = h_generic.h_monomial(t)
        with_l += any(set(c.coeffs) - {0} for c in h.terms.values())
        assert spec_operad(h, q) == h_q.h_monomial(t), t
    assert with_l > 5
