"""The shape rule of the L-infinity brackets against the brackets.

`linf.component_part` says from the parts (arity, ALG|DO) of the arguments
alone whether a component of l_n vanishes, and which part it lands in
otherwise; `_bracket_sum` walks only the components it keeps and
`jacobi_residual` builds only the inner brackets whose outer term it keeps.
Here its predictions are checked against `cda_bracket`, and every Jacobi
term it drops is computed in full by a literal reading of items (i)-(v),
with no shape rule, and found to be zero.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from operad_forge import linf
from operad_forge.coeffs import LAMBDA, chi_sign, shuffles
from operad_forge.hom_complex import (GradedSpace, desuspend_target,
                                      hom_gerstenhaber, suspend_target)
from operad_forge.linf import (ALG, DO, JACOBI_PATTERNS, CdaElement,
                               antisymmetry_residual, cda_bracket,
                               component_part, jacobi_residual, live_parts,
                               mc_residual, random_multimap, twist_width)
from test_linf_oracle import ordering_bracket, random_part

# the spaces of the benchmark's Jacobi workload
SPACES = (GradedSpace({0: 1}), GradedSpace({0: 2}),
          GradedSpace({0: 1, 1: 1}))


def literal_component(lam, comps):
    """One component of l_n as items (i)-(v) display it, with no shape
    rule: (flag, map), or None for zero."""
    flags = [f for f, _ in comps]
    if flags == [ALG, ALG]:
        return ALG, hom_gerstenhaber(comps[0][1], comps[1][1])
    if len(comps) < 2 or flags.count(ALG) != 1:
        return None
    if len(comps) > 2:
        return ordering_bracket(lam, comps)
    k = flags.index(ALG)
    sf, g = comps[k][1], comps[1 - k][1]
    mm = desuspend_target(hom_gerstenhaber(sf, suspend_target(g)))
    return DO, mm.scale(-1) if (sf.degree + k * (sf.degree * g.degree + 1)) \
        % 2 else mm


def literal_bracket(space, lam, args):
    """l_n summed over every product of the arguments' parts."""
    terms = []
    for combo in itertools.product(*(a.parts.items() for a in args)):
        got = literal_component(lam, [(flag, mm) for (_, flag), mm in combo])
        if got is not None and not got[1].is_zero():
            terms.append((1, CdaElement(space, {(got[1].arity, got[0]):
                                                got[1]})))
    return CdaElement.sum(space, terms)


def shapes(args):
    return tuple(tuple(a.parts) for a in args)


def random_element(rng, space, flag, arity, extra_parts=0):
    """A homogeneous element with a random part of the given flag and
    arity and up to ``extra_parts`` more parts of its degree, none of
    larger arity."""
    first = random_part(rng, space, flag, arity)
    parts = {(arity, flag): first}
    s_space = space.shift(1)
    for _ in range(4 * extra_parts):
        if len(parts) > extra_parts:
            break
        key = (rng.randint(1, arity), rng.choice([ALG, DO]))
        target = s_space if key[1] == ALG else space
        mm = random_multimap(rng, s_space, target, key[0], first.degree)
        if key not in parts and not mm.is_zero():
            parts[key] = mm
    return CdaElement(space, parts)


def test_component_part_cases():
    assert component_part(((2, ALG), (3, ALG))) == (4, ALG)
    assert component_part(((2, DO), (3, ALG))) == (4, DO)
    assert component_part(((2, DO), (3, DO))) is None
    assert component_part(((2, ALG),)) is None
    # width 4: three do maps braced into an alg part of arity >= 3
    assert component_part(((1, DO), (3, ALG), (2, DO), (1, DO))) == (4, DO)
    assert component_part(((1, DO), (2, ALG), (2, DO), (1, DO))) is None
    assert component_part(((1, ALG), (3, ALG), (2, DO), (1, DO))) is None
    assert live_parts((((2, ALG), (1, DO)), ((1, DO), (3, ALG)))) == \
        ((2, DO), (3, DO), (4, ALG))
    assert live_parts((((1, DO),), ())) == ()


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_predicted_parts_contain_every_bracket_part(space, width):
    rng = random.Random(f"predict/{space}/{width}")
    nonzero = 0
    for trial in range(12):
        # one alg part with about as many inputs as there are do maps to
        # brace into it, and a second alg part in every third trial
        k, k2 = rng.randrange(width), rng.randrange(width)
        args = [random_element(rng, space, ALG, rng.randint(
                    max(1, width - 2), width), extra_parts=trial % 2)
                if t == k else
                random_element(rng, space, ALG, rng.randint(1, 3))
                if t == k2 and trial % 3 == 0 else
                random_element(rng, space, DO, rng.randint(1, 2),
                               extra_parts=trial % 2)
                for t in range(width)]
        got = cda_bracket(space, LAMBDA, args)
        assert set(got.parts) <= set(live_parts(shapes(args)))
        nonzero += not got.is_zero()
    assert nonzero


def jacobi_terms(args):
    """(scalar, inner arguments, rest) of every term of the Jacobi sum."""
    n = len(args)
    degs = [a.degree() for a in args]
    for i in range(2, n):
        for sigma in shuffles(i, n - i):
            yield (chi_sign(degs, sigma) * (-1) ** (i * (n - i)),
                   [args[t] for t in sigma[:i]], [args[t] for t in sigma[i:]])


def dropped(inner, rest):
    return not live_parts((live_parts(shapes(inner)), *shapes(rest)))


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("width", [3, 4, 5])
def test_dropped_jacobi_terms_are_zero_in_full(space, width):
    rng = random.Random(f"dropped/{space}/{width}")
    drops = live_inner = 0
    for trial in range(2 * len(JACOBI_PATTERNS[width])):
        pattern = JACOBI_PATTERNS[width][trial % len(JACOBI_PATTERNS[width])]
        args = [random_element(rng, space, f,
                               rng.randint(1, 3 if f == ALG else 2),
                               extra_parts=trial % 2) for f in pattern]
        for _, inner, rest in jacobi_terms(args):
            if not dropped(inner, rest):
                continue
            drops += 1
            x = literal_bracket(space, LAMBDA, inner)
            live_inner += not x.is_zero()
            assert literal_bracket(space, LAMBDA, [x, *rest]).is_zero()
    assert drops and live_inner


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("pattern", [
    p for ps in JACOBI_PATTERNS.values() for p in ps if p.count(ALG) == 1])
def test_single_alg_patterns_build_no_inner_bracket(space, pattern,
                                                    monkeypatch):
    rng = random.Random(f"single-alg/{space}/{pattern}")
    calls = []

    def counting(*a):
        calls.append(a)
        return cda_bracket(*a)

    monkeypatch.setattr(linf, "cda_bracket", counting)
    args = [random_element(rng, space, f, rng.randint(1, 3))
            for f in pattern]
    assert jacobi_residual(space, LAMBDA, args).is_zero()
    assert not calls
    # with a second alg part some terms are live and are built
    args = [random_element(rng, space, f, rng.randint(1, 3))
            for f in (ALG, ALG, DO)]
    assert jacobi_residual(space, LAMBDA, args).is_zero()
    assert calls


def test_zero_arguments_give_zero():
    rng = random.Random(5)
    space = SPACES[1]
    zero = CdaElement(space)
    args = [random_element(rng, space, ALG, 2), zero,
            random_element(rng, space, DO, 1)]
    assert cda_bracket(space, LAMBDA, args).is_zero()
    assert jacobi_residual(space, LAMBDA, args) == zero
    assert jacobi_residual(space, LAMBDA, [zero] * 4) == zero
    assert antisymmetry_residual(space, LAMBDA, args, (2, 0, 1)) == zero


@pytest.mark.parametrize("space", SPACES + (GradedSpace({-1: 1, 0: 1}),),
                         ids=str)
def test_twist_width_is_the_largest_live_width(space):
    rng = random.Random(f"twist/{space}")

    def element():
        return random_element(rng, space, rng.choice([ALG, DO]),
                              rng.randint(1, 4), extra_parts=rng.randint(0, 2))

    for _ in range(40):
        alpha = element()
        args = [element() for _ in range(rng.randint(0, 3))]
        n = len(args)
        alpha_parts = list(alpha.parts)
        live = [w for w in range(max(n, 2), 10)
                if any(component_part(combo) for combo in itertools.product(
                    *[alpha_parts] * (w - n), *shapes(args)))]
        assert twist_width(alpha, args) == max(live, default=1)


@pytest.mark.parametrize("dims, keys", [
    ({0: 1, 1: 1}, [(1, ALG), (2, DO)]),
    ({-1: 1, 0: 1}, [(2, ALG), (4, DO)]),
    ({-1: 1, 0: 1}, [(1, ALG), (2, ALG), (3, DO)]),
], ids=str)
def test_mc_cutoff_with_a_long_do_part(dims, keys):
    """alpha's do part is longer than each alg part, so the cutoff from
    the rule is below the old one, max arity + 1; the brackets between
    them vanish, and the sum is the sum over the old widths."""
    space = GradedSpace(dims)
    rng = random.Random(f"mc/{dims}")
    s_space = space.shift(1)
    alpha = CdaElement(space, {
        (n, flag): random_multimap(rng, s_space,
                                   s_space if flag == ALG else space, n, -1,
                                   density=1.0) for n, flag in keys})
    old_cap = max(n for n, _ in alpha.parts) + 1
    assert twist_width(alpha, []) < old_cap
    got = mc_residual(space, LAMBDA, alpha)
    want = CdaElement.sum(space, [
        (Fraction((-1) ** (n * (n - 1) // 2), factorial(n)),
         literal_bracket(space, LAMBDA, [alpha] * n))
        for n in range(2, old_cap + 1)])
    assert got == want
    assert not got.is_zero()
