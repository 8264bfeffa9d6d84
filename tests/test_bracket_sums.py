"""One raw accumulator per bracket sum against the term-by-term sum.

`linf._bracket_sum` walks every bracket of a sum (the Jacobi sum, the
twisted bracket l_n^alpha, the Maurer-Cartan equation) into one set of raw
cells, which become the result's tables as they are: no Coefficient is
built for a cell.  Here each such sum is
compared with `CdaElement.sum` over its brackets, each computed on its own
by `cda_bracket`, on sums that are not zero, at generic L and at L = 1/2.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from operad_forge.algebras import DifAlgebraData, associativity_defects
from operad_forge.cochain import CochainComplexes
from operad_forge.coeffs import LAMBDA, Coefficient, chi_sign, shuffles
from operad_forge.compare import da_cochain_to_cda
from operad_forge.hom_complex import GradedSpace
from operad_forge.linf import (
    ALG,
    DO,
    JACOBI_PATTERNS,
    CdaElement,
    _bracket_sum,
    _component_bracket,
    cda_bracket,
    jacobi_residual,
    mc_from_algebra,
    mc_residual,
    random_component,
    random_multimap,
    twisted_bracket,
)
from oracles import assert_raw_normal_form

WEIGHTS = (LAMBDA, Coefficient.rational(Fraction(1, 2)))
SPACES = (GradedSpace({0: 2}), GradedSpace({0: 1, 1: 1}))
TWO_DIM = DifAlgebraData.build(
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]], 1)
# not associative, and d is not a derivation of any weight
NONASSOCIATIVE = DifAlgebraData.build(
    [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [[1, 1], [0, 2]], 1)


def assert_normalized(x: CdaElement):
    """No empty row, no zero cell and no integral Fraction in x."""
    for mm in x.parts.values():
        assert_raw_normal_form(mm)


def assert_one_sum_matches_each(space, lam, terms):
    """The one-accumulator sum of c * l_n(args) over ``terms`` equals the
    sum of the brackets computed one by one; returns whether it is
    nonzero."""
    terms = list(terms)
    one = _bracket_sum(space, lam, terms)
    each = CdaElement.sum(space, [(c, cda_bracket(space, lam, args))
                                  for c, args in terms])
    assert one == each
    assert_normalized(one)
    return not one.is_zero()


def seeded_args(rng, space, width):
    """Random components on the pattern with two alg parts, whose Jacobi
    terms at one inner width do not cancel."""
    while True:
        args = [random_component(rng, space, f)
                for f in JACOBI_PATTERNS[width][0]]
        if all(a is not None for a in args):
            return args


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_jacobi_sum_split_by_inner_width(space, lam):
    rng = random.Random(f"jacobi/{space}/{lam}")
    nonzero = 0
    for width in (4, 4, 5, 5):
        args = seeded_args(rng, space, width)
        degs = [a.degree() for a in args]
        parts = []
        for i in range(2, width):
            terms = [(chi_sign(degs, sigma) * (-1) ** (i * (width - i)),
                      [cda_bracket(space, lam, [args[t] for t in sigma[:i]])]
                      + [args[t] for t in sigma[i:]])
                     for sigma in shuffles(i, width - i)]
            nonzero += assert_one_sum_matches_each(space, lam, terms)
            parts.append(_bracket_sum(space, lam, terms))
        # the split sums add up to the whole residual, which is zero
        assert CdaElement.sum(space, [(1, p) for p in parts]) == \
            jacobi_residual(space, lam, args)
        assert jacobi_residual(space, lam, args).is_zero()
    assert nonzero


def twisted_terms(alpha, args, cap):
    """The (scalar, arguments) terms of l_n^alpha(args), as displayed in
    `twisted_bracket`'s docstring."""
    n = len(args)
    for i in range(max(0, 2 - n), cap + 1):
        yield (Fraction((-1) ** (i * n + i * (i - 1) // 2), factorial(i)),
               [alpha] * i + list(args))


@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_twisted_bracket_on_basis_cochains(lam):
    space, alpha = mc_from_algebra(TWO_DIM)
    cx = CochainComplexes(TWO_DIM)
    nonzero = 0
    for level in (1, 2, 3):
        for cochain in cx._da_basis(level):
            x = da_cochain_to_cda(TWO_DIM, cochain)
            got = twisted_bracket(space, lam, alpha, [x])
            cap = max(x.max_arity(), alpha.max_arity()) + 2
            want = CdaElement.sum(space, [
                (c, cda_bracket(space, lam, args))
                for c, args in twisted_terms(alpha, [x], cap)])
            assert got == want
            assert_normalized(got)
            nonzero += not got.is_zero()
    assert nonzero


@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_mc_residual_of_a_nonassociative_algebra(lam):
    assert associativity_defects(NONASSOCIATIVE)
    space, alpha = mc_from_algebra(NONASSOCIATIVE)
    got = mc_residual(space, lam, alpha)
    cap = alpha.max_arity() + 1
    want = CdaElement.sum(space, [
        (Fraction((-1) ** (n * (n - 1) // 2), factorial(n)),
         cda_bracket(space, lam, [alpha] * n)) for n in range(2, cap + 1)])
    assert got == want
    assert {flag for _, flag in got.parts} == {ALG, DO}
    assert_normalized(got)


def single_part(space, flag, rng):
    s_space = space.shift(1)
    target = s_space if flag == ALG else space
    arity = rng.randint(1, 2)
    degrees = sorted({target.degree_of(b) - sum(key)
                      for key in itertools.product(s_space.degrees,
                                                   repeat=arity)
                      for b in target.basis()})
    while True:
        mm = random_multimap(rng, s_space, target, arity,
                             rng.choice(degrees), 0.7)
        if not mm.is_zero():
            return flag, mm


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_cda_bracket_on_single_parts_is_the_component_bracket(space, lam):
    rng = random.Random(f"single/{space}/{lam}")
    patterns = [(ALG, ALG), (ALG, DO), (DO, ALG), (ALG, DO, DO),
                (DO, ALG, DO), (DO, DO, ALG, DO), (ALG, ALG, DO), (DO, DO)]
    nonzero = 0
    for pattern in patterns * 3:
        comps = [single_part(space, f, rng) for f in pattern]
        got = _component_bracket(space, lam, comps)
        want = cda_bracket(space, lam, [CdaElement(space, {(mm.arity, f): mm})
                                        for f, mm in comps])
        if got is None:
            assert want.is_zero()
            continue
        nonzero += 1
        flag, mm = got
        assert want.parts == {(mm.arity, flag): mm}
    assert nonzero
