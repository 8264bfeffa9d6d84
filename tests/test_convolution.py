import random

import pytest

from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.convolution import ConvElement, conv_ell, from_cda, to_cda
from operad_forge.hom_complex import GradedSpace
from operad_forge.linf import ALG, DO, cda_bracket, random_component

PATTERNS = [
    (ALG, ALG), (ALG, DO), (DO, ALG), (DO, DO),
    (ALG, ALG, DO), (ALG, DO, DO), (DO, ALG, DO), (DO, DO, DO),
    (ALG, DO, DO, DO), (DO, DO, ALG, DO), (ALG, ALG, DO, DO),
]


def _args(rng, space, pattern):
    while True:
        out = [random_component(rng, space, flag) for flag in pattern]
        if all(a is not None for a in out):
            return out


def test_dictionary_roundtrip():
    rng = random.Random(0)
    space = GradedSpace({0: 1, 1: 1})
    for flag in (ALG, DO):
        x = _args(rng, space, (flag,))[0]
        assert to_cda(from_cda(x)) == x


def test_weight_two_operation_is_brace_composition():
    # on two algebra-part elements the weight-2 operation lands at the
    # degree-0 generator and m_2 antisymmetrizes to the Gerstenhaber bracket
    rng = random.Random(1)
    space = GradedSpace({0: 2})
    f, g = _args(rng, space, (ALG, ALG))
    ell = conv_ell(space, LAMBDA, [from_cda(f), from_cda(g)])
    want = from_cda(cda_bracket(space, LAMBDA, [f, g]))
    assert ell == want
    assert not [c.arity for c in ell.parts if c.kind == "dt"]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_antisymmetrized_convolution_matches_brackets(pattern):
    rng = random.Random(hash(pattern) % 10000)
    for space in (GradedSpace({0: 2}), GradedSpace({0: 1, 1: 1})):
        for _ in range(3):
            args = _args(rng, space, pattern)
            lhs = conv_ell(space, LAMBDA, [from_cda(a) for a in args])
            rhs = from_cda(cda_bracket(space, LAMBDA, args))
            assert lhs == rhs


def test_specialized_weight_agrees_too():
    rng = random.Random(5)
    lam = Coefficient.rational(-2)
    space = GradedSpace({0: 2})
    for pattern in ((ALG, DO, DO), (ALG, ALG)):
        args = _args(rng, space, pattern)
        lhs = conv_ell(space, lam, [from_cda(a) for a in args])
        rhs = from_cda(cda_bracket(space, lam, args))
        assert lhs == rhs


def test_conv_element_degree_checks():
    space = GradedSpace({0: 1})
    assert ConvElement(space).is_zero()
    rng = random.Random(6)
    x = _args(rng, space, (ALG,))[0]
    assert from_cda(x).degree() == x.degree()
