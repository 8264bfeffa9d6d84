"""Every table the map kernels hand out, and every operad element, stays
in raw normal form.

A `MultiMap` cell and an `OperadElement` cell are raw cells {power of L:
rational}, and nothing but the kernels keeps them normal: every row and
cell nonempty, no zero value, an int wherever a value is integral
(`oracles.assert_raw_normal_form` and `assert_element_normal_form`).
Here maps with Q[L] cells, given as raw cells or as Coefficients, with
halves that add up to integers, go through every producer of tables: sums
and scalings (`sum_maps`, `+`, `-`, `scale`), `compose_sum`, `brace_sum`,
`linf._bracket_sum` and the suspension translations.  Elements with such
cells go through every producer of elements: sums and scalings,
`partial_compose`, `brace`, `gerstenhaber`, `diff_element`,
`Contraction.apply`, `DifRewriter.normalize`, `from_cells` and
`parse_element`.
"""

import itertools
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from operad_forge.coeffs import LAMBDA, Coefficient
from operad_forge.contraction import Contraction
from operad_forge.dif_operads import (Difinfty, DifRewriter, d_gen,
                                      enumerate_monomials, m_gen)
from operad_forge.formats import element_records, parse_element
from operad_forge.free_operad import (OperadElement, brace, gerstenhaber,
                                      partial_compose)
from operad_forge.hom_complex import (GradedSpace, MultiMap, brace_sum,
                                      compose_sum, desuspend_target,
                                      iso1_down, iso1_up, iso2_down, iso2_up,
                                      sum_maps, suspend_target)
from operad_forge.linf import ALG, DO, CdaElement, _bracket_sum
from oracles import assert_element_normal_form, assert_raw_normal_form

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


BLOCKS = {}
for _t in enumerate_monomials(3, 2):
    BLOCKS.setdefault((_t.arity, _t.degree), []).append(_t)
DEGREE_ZERO = [t for t in enumerate_monomials(
    3, 3, min_degree=0, max_degree=0, gens=[m_gen(2), d_gen(1)])
    if t.arity == 3]
CONTRACTION = Contraction(Difinfty())
REWRITER = DifRewriter()


def draw_element(data, monomials):
    chosen = data.draw(st.lists(st.sampled_from(monomials), min_size=1,
                                max_size=4, unique_by=lambda t: t.word))
    return OperadElement({t: data.draw(cells) for t in chosen})


@PROPERTY
@given(st.data())
def test_operad_element_producers(data):
    block = BLOCKS[data.draw(st.sampled_from(sorted(BLOCKS)))]
    x, y = draw_element(data, block), draw_element(data, block)
    f, g = (draw_element(data, BLOCKS[data.draw(st.sampled_from(
        sorted(BLOCKS)))]) for _ in range(2))
    z = draw_element(data, DEGREE_ZERO)
    c, d = data.draw(scalars), data.draw(scalars)
    i = data.draw(st.integers(1, f.arity))
    cells = [((t.word, e), Fraction(2 * v.numerator, 2 * v.denominator))
             for t, v in zip(block, HALVES) for e in (0, 2)]
    twice = json.dumps(element_records(x) * 2)
    for out in (x + y, x - y, -x, x.scale(c), (x + y).scale(d),
                OperadElement.sum([(c, x), (d, y), (-c, x)]),
                partial_compose(f, i, g), brace(f, [g] * min(f.arity, 2)),
                gerstenhaber(f, g), CONTRACTION.op.diff_element(x),
                CONTRACTION.apply(x), REWRITER.normalize(z),
                REWRITER.normalize(z.scale(c)),
                OperadElement.from_cells(cells), parse_element(twice)):
        assert_element_normal_form(out)
    assert parse_element(twice) == x.scale(2)
    assert (x.scale(c) - x.scale(c)).is_zero()
