"""compose_full, hom_brace, brace_sum, compose_sum and the sums and
scalings of maps against a naive evaluation.

The oracle reads the definition in `compose_full`'s docstring literally:
for every input tuple it splits the tuple into one block per slot,
evaluates each slot map on its block (an identity slot passes its basis
element through), applies f to every combination of slot outputs, and
pays (-1)**(deg(h_s) * deg(the blocks left of slot s)) for each slot map.
It walks input tuples rather than f's table and never indexes a slot map
by output, so it shares no code path with the kernel.  A brace is the sum
of such compositions over every strictly increasing choice of insertion
slots, and a sum of maps adds their values input tuple by input tuple.
Every caller of the walk kernel in `hom_complex` (fixed slot lists,
braces, sums of either, sums of maps) is checked here against this
evaluation.
"""

import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import Coefficient
from operad_forge.hom_complex import (GradedSpace, MultiMap, brace_sum,
                                      compose_full, compose_sum, hom_brace,
                                      sum_maps)
from oracles import assert_raw_normal_form, values

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
        assert_raw_normal_form(got)
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
        assert_raw_normal_form(got)
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
    assert values(got) == {(1,): {0: -ONE}}
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
    assert values(hom_brace(f2, [g2])) == {(x, e): {x: -ONE},
                                           (e, x): {x: ONE}}


def scaled(table, c):
    return {key: {b: v * c for b, v in row.items()}
            for key, row in table.items()}


def test_compose_sum_with_q_l_scalars_matches_naive_evaluation():
    # terms c * f o (slots) with c in Q[L]; one f recurs under several
    # scalars, and some terms come twice with opposite scalars, so whole
    # sums cancel exactly
    rng = random.Random(33)
    cancelled_sums = 0
    for _ in range(30):
        space = rng.choice(SPACES)
        f = random_map(rng, space, 2, rng.choice([-1, 0]))
        g = random_map(rng, space, 1, rng.choice([-1, 1]))
        terms = []
        for _ in range(rng.randint(1, 4)):
            slots = [g, None] if rng.random() < 0.5 else [None, g]
            c = rng.choice(VALUES + (Coefficient.lam(2, 3), 2, -1))
            terms.append((c, f, slots))
            if rng.random() < 0.3:
                terms.append((-Coefficient.rational(c)
                              if isinstance(c, int) else -c, f, slots))
        want = {}
        for c, h, slots in terms:
            add_tables(want, scaled(naive_table(h, slots),
                                    c if isinstance(c, Coefficient)
                                    else Coefficient.rational(c)))
        got = compose_sum(space, space, 2, f.degree + g.degree, terms)
        assert_raw_normal_form(got)
        assert got == as_map(f, [g, None], want)
        cancelled_sums += got.is_zero() and not f.is_zero()
    assert cancelled_sums >= 1


def test_compose_sum_rejects_terms_of_another_degree():
    space = SPACES[0]
    rng = random.Random(34)
    f = random_map(rng, space, 1, 0)
    g = random_map(rng, space, 1, 1)
    with pytest.raises(ValueError):
        compose_sum(space, space, 1, 0, [(1, f, [None]), (1, f, [g])])


def random_scalar(rng):
    return rng.choice(VALUES + (Coefficient.lam(2, 3), 2, -1))


def negated(c):
    return -Coefficient.rational(c) if isinstance(c, int) else -c


def as_scalar(c):
    return c if isinstance(c, Coefficient) else Coefficient.rational(c)


def arities_summing_to(rng, total, parts):
    """Random positive arities of ``parts`` maps summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_brace_sum_of_mixed_terms_matches_naive_evaluation():
    # terms c * f{g_1..g_m} of one arity and degree with outer arities 1 to
    # 3, m from 1 to 3 (more maps than inputs now and then) and Q[L]
    # scalars; some terms come twice with opposite scalars
    rng = random.Random(35)
    zeros = too_many = 0
    for _ in range(40):
        space = rng.choice(SPACES)
        arity, degree = rng.randint(2, 4), rng.choice([-1, 0, 1])
        terms = []
        for _ in range(rng.randint(1, 4)):
            a, m = rng.randint(1, 3), rng.randint(1, 3)
            if a > arity:
                continue
            gdegs = [rng.choice([-1, 0, 1]) for _ in range(m)]
            gs = [random_map(rng, space, k, d) for k, d in
                  zip(arities_summing_to(rng, arity - a + m, m), gdegs)]
            f = random_map(rng, space, a, degree - sum(gdegs))
            c = random_scalar(rng)
            terms.append((c, f, gs))
            if m > a:
                too_many += 1
                assert brace_sum([(c, f, gs)]).is_zero()
            if rng.random() < 0.3:
                terms.append((negated(c), f, gs))
        if not terms:
            continue
        want = {}
        for c, f, gs in terms:
            add_tables(want, scaled(naive_brace(f, gs), as_scalar(c)))
        got = brace_sum(terms)
        assert_raw_normal_form(got)
        assert got == MultiMap(space, space, arity, degree, want)
        zeros += cancelled(want)
    assert zeros > 2 and too_many > 2


#: scalars with several powers of L, so that a sum adds power by power
MULTI = (ONE - L, L * L + Coefficient.rational(2),
         Coefficient({0: Fraction(1, 2), 3: -1}))


def naive_sum(terms):
    """sum of c * f over (c, f) terms of one shape, input tuple by input
    tuple, every value read through `evaluate`."""
    f = terms[0][1]
    table = {}
    for key in itertools.product(f.source.basis(), repeat=f.arity):
        row = table[key] = {}
        for c, g in terms:
            for b, v in g.evaluate(key).items():
                row[b] = row.get(b, ZERO) + as_scalar(c) * v
    return table


def test_map_sums_and_scalings_match_naive_evaluation():
    # scalings, +, - and keywise family sums with scalars in Q[L] of
    # several powers; a key whose terms cancel exactly must be dropped,
    # and h - c f with h = c f + g cancels entry by entry where g is zero
    rng = random.Random(37)
    zeros = 0
    for _ in range(30):
        space = rng.choice(SPACES)
        arity, degree = rng.randint(1, 2), rng.choice([-1, 0, 1])
        f, g = (random_map(rng, space, arity, degree) for _ in range(2))
        c, d = rng.choice(MULTI), random_scalar(rng)
        h = f.scale(c) + g
        for got, terms in ((f.scale(c), [(c, f)]), (f + g, [(1, f), (1, g)]),
                           (f - g.scale(d), [(1, f), (negated(d), g)]),
                           (h - f.scale(c), [(1, h), (-c, f)]),
                           (f._sum([(c, f), (d, g)]), [(c, f), (d, g)])):
            assert_raw_normal_form(got)
            want = naive_sum(terms)
            zeros += cancelled(want)
            assert got == MultiMap(space, space, arity, degree, want)
        sums = sum_maps([(c, {"f": f, "g": g}), (d, {"g": g}),
                         (-c, {"f": f})])
        assert "f" not in sums
        want = MultiMap(space, space, arity, degree,
                        naive_sum([(c, g), (d, g)]))
        assert sums.get("g", MultiMap.zero(space, space, arity,
                                           degree)) == want
        assert ("g" in sums) == (not want.is_zero())
        assert (f.scale(ONE - L) + f.scale(L * L + Coefficient.rational(2))
                - f.scale(L * L - L + Coefficient.rational(3))).is_zero()
    assert zeros > 20


def stasheff_shaped_terms(rng, ms, n):
    """The terms of the Stasheff sum at arity n over the maps ``ms`` by
    arity, each with a Q[L] scalar times its sign (-1)**(i + jk)."""
    terms = []
    for j in range(1, n + 1):
        for i in range(n - j + 1):
            k = n - j - i
            slots = [None] * (n - j + 1)
            slots[i] = ms[j]
            c = as_scalar(random_scalar(rng))
            terms.append((-c if (i + j * k) % 2 else c, ms[n - j + 1], slots))
    return terms


def test_compose_sum_of_mixed_outer_arities_matches_naive_evaluation():
    # m_{i+1+k} o (1^i, m_j, 1^k) over every i + j + k = n: outer maps of
    # arities 1 to n in one call, each term with its own Q[L] scalar; m_k
    # has degree k - 2 + shift, so every term has degree n - 3 + 2 shift
    rng = random.Random(36)
    zeros = 0
    for _ in range(20):
        space = rng.choice(SPACES)
        n, shift = rng.randint(2, 4), rng.randint(0, 1)
        ms = {k: random_map(rng, space, k, k - 2 + shift, density=0.5)
              for k in range(1, n + 1)}
        terms = stasheff_shaped_terms(rng, ms, n)
        if rng.random() < 0.5:
            c, f, slots = rng.choice(terms)
            terms.append((-c, f, slots))
        want = {}
        for c, f, slots in terms:
            add_tables(want, scaled(naive_table(f, slots), c))
        degree = n - 3 + 2 * shift
        got = compose_sum(space, space, n, degree, terms)
        assert_raw_normal_form(got)
        assert got == MultiMap(space, space, n, degree, want)
        zeros += cancelled(want)
    assert zeros > 5


def test_compose_sum_of_an_associative_product_cancels_exactly():
    # Q[L][x]/(x^2 - L x) on the basis (1, x): m(x, x) = L x is associative,
    # so m o (m, 1) - m o (1, m) cancels on every input
    space = GradedSpace({0: 2})
    m = MultiMap(space, space, 2, 0, {(0, 0): {0: ONE}, (0, 1): {1: ONE},
                                       (1, 0): {1: ONE}, (1, 1): {1: L}})
    terms = [(1, m, [m, None]), (-1, m, [None, m])]
    assert compose_sum(space, space, 3, 0, terms).is_zero()
    assert all(c.is_zero() for row in add_tables(
        add_tables({}, naive_table(m, [m, None])),
        scaled(naive_table(m, [None, m]), -ONE)).values()
        for c in row.values())
    assert brace_sum([(1, m, [m]), (-1, m, [m])]).is_zero()
