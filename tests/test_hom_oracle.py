"""compose_full and hom_brace against a naive evaluation.

The oracle reads the definition in `compose_full`'s docstring literally:
for every input tuple it splits the tuple into one block per slot,
evaluates each slot map on its block (an identity slot passes its basis
element through), applies f to every combination of slot outputs, and
pays (-1)**(deg(h_s) * deg(the blocks left of slot s)) for each slot map.
It walks input tuples rather than f's table and never indexes a slot map
by output, so it shares no code path with the kernel.
"""

import itertools
import random

from operad_forge.coeffs import Coefficient
from operad_forge.hom_complex import (GradedSpace, MultiMap, compose_full,
                                      hom_brace)

ONE = Coefficient.one()
ZERO = Coefficient.zero()
L = Coefficient.lam()

#: small values, so that random sums cancel exactly now and then
VALUES = (ONE, -ONE, L, -L, ONE - L, L * L + ONE)


def naive_table(f, slots):
    src = f.source
    arities = [1 if h is None else h.arity for h in slots]
    table = {}
    for key in itertools.product(src.basis(), repeat=sum(arities)):
        blocks, pos = [], 0
        for a in arities:
            blocks.append(key[pos:pos + a])
            pos += a
        exp, left = 0, 0
        values = []
        for h, block in zip(slots, blocks):
            if h is None:
                values.append([(block[0], ONE)])
            else:
                exp += h.degree * left
                values.append(list(h.evaluate(block).items()))
            left += sum(src.degree_of(i) for i in block)
        sign = -ONE if exp % 2 else ONE
        row = {}
        for choice in itertools.product(*values):
            c = sign
            for _, cc in choice:
                c = c * cc
            for b, cf in f.evaluate(tuple(b for b, _ in choice)).items():
                row[b] = row.get(b, ZERO) + cf * c
        table[key] = row
    return table


def add_tables(acc, table):
    for key, row in table.items():
        out = acc.setdefault(key, {})
        for b, c in row.items():
            out[b] = out.get(b, ZERO) + c
    return acc


def as_map(f, slots, table):
    """The map of a naive table; the constructor drops zero entries and
    empty rows and checks every entry's degree."""
    arity = sum(1 if h is None else h.arity for h in slots)
    degree = f.degree + sum(h.degree for h in slots if h is not None)
    return MultiMap(f.source, f.target, arity, degree, table)


def naive_brace(f, gs):
    acc = {}
    for positions in itertools.combinations(range(f.arity), len(gs)):
        slots = [None] * f.arity
        for p, g in zip(positions, gs):
            slots[p] = g
        add_tables(acc, naive_table(f, slots))
    return acc


def random_map(rng, space, arity, degree, density=0.7):
    table = {}
    for key in itertools.product(space.basis(), repeat=arity):
        want = sum(space.degree_of(i) for i in key) + degree
        row = {b: rng.choice(VALUES) for b in space.basis()
               if space.degree_of(b) == want and rng.random() < density}
        if row:
            table[key] = row
    return MultiMap(space, space, arity, degree, table)


def assert_clean(mm):
    for row in mm.table.values():
        assert row
        assert all(not c.is_zero() for c in row.values())


def cancelled(table):
    """Entries of a naive table whose terms summed to exactly zero."""
    return sum(1 for row in table.values() for c in row.values()
               if c.is_zero())


SPACES = (GradedSpace({0: 1, 1: 1}), GradedSpace({0: 2, 1: 1}),
          GradedSpace({-1: 1, 0: 1, 1: 1}))


def test_compose_full_matches_naive_evaluation():
    rng = random.Random(31)
    odd_slots = zeros = 0
    for _ in range(60):
        space = rng.choice(SPACES)
        f = random_map(rng, space, rng.randint(1, 3), rng.choice([-1, 0, 1]))
        slots = [None if rng.random() < 0.3 else
                 random_map(rng, space, rng.randint(1, 2),
                            rng.choice([-1, 0, 1]))
                 for _ in range(f.arity)]
        odd_slots += sum(1 for h in slots if h is not None and h.degree % 2)
        got = compose_full(f, slots)
        assert_clean(got)
        want = naive_table(f, slots)
        zeros += cancelled(want)
        assert got == as_map(f, slots, want)
    assert odd_slots > 20 and zeros > 2


def test_hom_brace_is_sum_over_increasing_positions():
    rng = random.Random(32)
    zeros = 0
    for _ in range(40):
        space = rng.choice(SPACES)
        f = random_map(rng, space, rng.randint(1, 3), rng.choice([-1, 0, 1]))
        gs = [random_map(rng, space, rng.randint(1, 2), rng.choice([-1, 0]))
              for _ in range(rng.randint(1, f.arity))]
        got = hom_brace(f, gs)
        assert_clean(got)
        arity = f.arity + sum(g.arity - 1 for g in gs)
        degree = f.degree + sum(g.degree for g in gs)
        want = naive_brace(f, gs)
        zeros += cancelled(want)
        assert got == MultiMap(space, space, arity, degree, want)
    assert zeros > 2


def test_exact_cancellation_leaves_no_entry():
    space = GradedSpace({0: 2})
    # h(e0) = e0 + L e1, h(e1) = e1; f(e0) = L e0, f(e1) = -e0
    h = MultiMap(space, space, 1, 0, {(0,): {0: ONE, 1: L}, (1,): {1: ONE}})
    f = MultiMap(space, space, 1, 0, {(0,): {0: L}, (1,): {0: -ONE}})
    got = compose_full(f, [h])
    assert got.table == {(1,): {0: -ONE}}
    assert got == as_map(f, [h], naive_table(f, [h]))


def test_brace_cancellation_across_positions():
    # g(e) = x is odd; f(x, e) = x and f(e, x) = -x, so on (e, e) the two
    # insertions cancel and the brace is zero
    space = GradedSpace({0: 1, 1: 1})
    e, x = 0, 1
    g = MultiMap(space, space, 1, 1, {(e,): {x: L}})
    f = MultiMap(space, space, 2, 0, {(x, e): {x: ONE}, (e, x): {x: -ONE}})
    assert hom_brace(f, [g]).is_zero()
    assert naive_brace(f, [g])[(e, e)] == {x: ZERO}
    # with the odd argument first, insertion after it pays the Koszul sign
    f2 = MultiMap(space, space, 2, -1, {(x, x): {x: ONE}})
    g2 = MultiMap(space, space, 1, 1, {(e,): {x: ONE}})
    assert hom_brace(f2, [g2]).table == {(x, e): {x: -ONE},
                                         (e, x): {x: ONE}}
