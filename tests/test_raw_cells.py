"""Every table the map kernels hand out stays in raw normal form.

A `MultiMap` cell is a raw cell {power of L: rational}, and nothing but
the kernels keeps it normal: every row and cell nonempty, no zero value,
an int wherever a value is integral (`oracles.assert_raw_normal_form`).
Here maps with Q[L] cells, given as raw cells or as Coefficients, with
halves that add up to integers, go through every producer of tables: sums
and scalings (`sum_maps`, `+`, `-`, `scale`), `compose_sum`, `brace_sum`,
`linf._bracket_sum` and the suspension translations.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from operad_forge.coeffs import LAMBDA, Coefficient
from operad_forge.hom_complex import (GradedSpace, MultiMap, brace_sum,
                                      compose_sum, desuspend_target,
                                      iso1_down, iso1_up, iso2_down, iso2_up,
                                      sum_maps, suspend_target)
from operad_forge.linf import ALG, DO, CdaElement, _bracket_sum
from oracles import assert_raw_normal_form

SPACES = (GradedSpace({0: 2}), GradedSpace({0: 1, 1: 1}),
          GradedSpace({-1: 1, 0: 1}))
HALVES = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))

raw_cells = st.dictionaries(st.integers(0, 2), st.sampled_from(HALVES),
                            min_size=1, max_size=2)
cells = st.one_of(raw_cells, raw_cells.map(Coefficient))
scalars = st.one_of(st.sampled_from((0, 1, -1, 2, Fraction(1, 2))),
                    raw_cells.map(Coefficient))
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


def draw_map(data, source, target, arity, degree):
    table = {}
    for key in itertools.product(source.basis(), repeat=arity):
        want = sum(map(source.degree_of, key)) + degree
        for b in target.basis():
            if target.degree_of(b) == want and data.draw(st.booleans()):
                table.setdefault(key, {})[b] = data.draw(cells)
    return MultiMap(source, target, arity, degree, table)


@PROPERTY
@given(st.data())
def test_sums_and_scalings(data):
    space = data.draw(st.sampled_from(SPACES))
    arity, degree = data.draw(st.integers(1, 2)), data.draw(st.integers(-1, 1))
    f, g = (draw_map(data, space, space, arity, degree) for _ in range(2))
    c, d = data.draw(scalars), data.draw(scalars)
    sums = sum_maps([(c, {"f": f, "g": g}), (d, {"f": g}), (c, {"g": f})])
    for mm in (f, g, f + g, f - g, -f, f.scale(c), (f + g).scale(d),
               f._sum([(c, f), (d, g), (-c, f)]), *sums.values()):
        assert_raw_normal_form(mm)
    assert (f.scale(c) - f.scale(c)).is_zero()


@PROPERTY
@given(st.data())
def test_compositions_and_braces(data):
    space = data.draw(st.sampled_from(SPACES))
    f = draw_map(data, space, space, 2, data.draw(st.integers(-1, 1)))
    g = draw_map(data, space, space, data.draw(st.integers(1, 2)),
                 data.draw(st.integers(-1, 1)))
    c, d = data.draw(scalars), data.draw(scalars)
    arity, degree = f.arity + g.arity - 1, f.degree + g.degree
    assert_raw_normal_form(compose_sum(
        space, space, arity, degree,
        [(c, f, [g, None]), (d, f, [None, g]), (c, f, [None, g])]))
    assert_raw_normal_form(brace_sum([(c, f, [g]), (d, f, [g])]))
    assert_raw_normal_form(brace_sum([(c, f, [g, g]), (d, f, [g, g])]))


def draw_mc_degree_element(data, space):
    """An element of degree -1, so brackets of any width and their sums
    land in parts of one degree each."""
    sv = space.shift(1)
    return CdaElement(space, {
        (n, flag): draw_map(data, sv, sv if flag == ALG else space, n, -1)
        for flag in (ALG, DO) for n in (1, 2)})


@PROPERTY
@given(st.data())
def test_bracket_sums_and_translations(data):
    space = data.draw(st.sampled_from(SPACES))
    lam = data.draw(st.sampled_from((LAMBDA, Coefficient.rational(
        Fraction(1, 2)))))
    x, y = (draw_mc_degree_element(data, space) for _ in range(2))
    c, d = data.draw(scalars), data.draw(scalars)
    out = _bracket_sum(space, lam, [(c, [x, y]), (d, [y, x, y]),
                                    (c, [x, x, x])])
    for mm in (*x.parts.values(), *out.parts.values()):
        assert_raw_normal_form(mm)
        for translate in (iso1_down, iso1_up, iso2_down, iso2_up,
                          suspend_target, desuspend_target):
            assert_raw_normal_form(translate(mm))
