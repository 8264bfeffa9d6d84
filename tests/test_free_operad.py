import itertools
import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import Coefficient, add_into
from operad_forge.dif_operads import (
    Difinfty,
    alphabet,
    d_gen,
    enumerate_monomials,
    m_gen,
)
from operad_forge.formats import element_records, parse_tree
from operad_forge.free_operad import (
    HomogeneityError,
    OperadElement,
    TreeMonomial,
    brace,
    brace_lenient,
    gerstenhaber,
    leaf_pieces,
    partial_compose,
    pre_jacobi_check,
    region_splicer,
    replace_region,
)
from oracles import (
    Divisor,
    contract,
    divisor_subtree,
    extend_derivation,
    graft,
    node_weight,
    sigma_koszul_sign,
    substitute,
    vertex_labels,
)


def gen_el(g):
    return OperadElement.generator(g)


def single(s):
    return OperadElement.single(TreeMonomial(parse_tree(s)))


M2, D1, D2, M3, D3 = (gen_el(g) for g in
                      (m_gen(2), d_gen(1), d_gen(2), m_gen(3), d_gen(3)))


def test_compose_no_sign_for_even():
    assert partial_compose(M2, 1, M2) == single("(m2 (m2 _ _) _)")


def test_compose_koszul_sign_odd_pair():
    # (m2 o2 d2) o1 d2 reorders two degree-1 factors
    f = partial_compose(M2, 2, D2)
    out = partial_compose(f, 1, D2)
    assert out == single("(m2 (d2 _ _) (d2 _ _))").scale(-1)


def test_compose_no_sign_mixed_parity():
    f = partial_compose(M2, 2, D1)
    out = partial_compose(f, 1, D2)
    assert out == single("(m2 (d2 _ _) (d1 _))")


def test_compose_position_out_of_range():
    with pytest.raises(ValueError):
        partial_compose(M2, 3, M2)


def test_homogeneity_enforced():
    with pytest.raises(HomogeneityError):
        M2 + D1          # mixed arities
    with pytest.raises(HomogeneityError):
        M3 + D2          # mixed arities again (degrees agree)
    with pytest.raises(HomogeneityError):
        partial_compose(M2, 1, M2) + single("(m3 _ _ _)")  # mixed degrees
    with pytest.raises(HomogeneityError):
        OperadElement.from_cells([((w, 0), 1) for w in (*M2.terms, *D1.terms)])

def test_equal_arity_equal_degree_sums_allowed():
    x = partial_compose(M2, 1, M2) + partial_compose(M2, 2, M2)
    assert x.arity == 3 and x.degree == 0 and len(x.terms) == 2


def test_brace_single_argument():
    got = brace(M2, [D1])
    want = partial_compose(M2, 1, D1) + partial_compose(M2, 2, D1)
    assert got == want


def test_brace_two_arguments_single_slot_pair():
    got = brace(M2, [D1, D1])
    want = partial_compose(partial_compose(M2, 1, D1), 2, D1)
    assert got == want


def test_brace_empty_is_identity():
    assert brace(M3, []) == M3


def test_brace_overflow_raises_but_lenient_is_zero():
    with pytest.raises(ValueError):
        brace(M2, [D1, D1, D1])
    assert brace_lenient(M2, [D1, D1, D1]).is_zero()


def brute_force_brace(f, gs):
    """Oracle: scan all index tuples satisfying i_1 >= 1 and
    i_j >= l_{j-1} + i_{j-1}, composing step by step."""
    if not gs:
        return f
    arities = [g.arity for g in gs]
    total = f.arity + sum(a - 1 for a in arities)
    out = OperadElement.zero()

    def rec(k, prev_i, prev_l, acc):
        nonlocal out
        if k == len(gs):
            out = out + acc
            return
        lo = 1 if k == 0 else prev_i + prev_l
        for i in range(lo, acc.arity + 1):
            if i + arities[k] - 1 > acc.arity + arities[k] - 1:
                continue
            rec(k + 1, i, arities[k], partial_compose(acc, i, gs[k]))

    rec(0, 0, 0, f)
    return out


@pytest.mark.parametrize("args", [
    (M2, [M2]), (M3, [M2, D1]), (M3, [D1, D1, D2]), (D3, [M2, M2]),
    (M3, [D2]), (D2, [D2, M3]),
])
def test_brace_matches_brute_force(args):
    f, gs = args
    assert brace_lenient(f, gs) == brute_force_brace(f, gs)


def test_gerstenhaber_self_brackets():
    assert gerstenhaber(M2, M2).is_zero()           # even self-bracket
    doubled = gerstenhaber(M3, M3)                  # odd: doubles the brace
    assert doubled == brace(M3, [M3]).scale(2)


def test_gerstenhaber_expansion():
    got = gerstenhaber(M2, D1)
    want = brace(M2, [D1]) - brace(D1, [M2])
    assert got == want


def _random_homogeneous(rng, max_arity=3):
    gens = [g for g in alphabet(max_arity)]
    g = rng.choice(gens)
    out = gen_el(g)
    if rng.random() < 0.5:
        h = rng.choice([x for x in gens if x.arity <= 2])
        out = partial_compose(out, rng.randint(1, out.arity), gen_el(h))
    return out


def test_gerstenhaber_graded_antisymmetry():
    rng = random.Random(3)
    for _ in range(40):
        f = _random_homogeneous(rng)
        g = _random_homogeneous(rng)
        sign = -1 if (f.degree * g.degree) % 2 == 0 else 1
        assert gerstenhaber(f, g) == gerstenhaber(g, f).scale(sign)


def test_sequential_associativity_exhaustive():
    gens = [m_gen(2), m_gen(3), d_gen(1), d_gen(2), d_gen(3)]
    for f, g, h in itertools.product(gens, repeat=3):
        fe, ge, he = gen_el(f), gen_el(g), gen_el(h)
        for i in range(1, f.arity + 1):
            for j in range(1, g.arity + 1):
                lhs = partial_compose(partial_compose(fe, i, ge),
                                      i + j - 1, he)
                rhs = partial_compose(fe, i, partial_compose(ge, j, he))
                assert lhs == rhs


def test_disjoint_slot_commutation_with_sign():
    gens = [m_gen(2), m_gen(3), d_gen(1), d_gen(2)]
    for f, g, h in itertools.product(gens, repeat=3):
        fe, ge, he = gen_el(f), gen_el(g), gen_el(h)
        for i in range(1, f.arity + 1):
            for k in range(i + 1, f.arity + 1):
                lhs = partial_compose(partial_compose(fe, i, ge),
                                      k + g.arity - 1, he)
                rhs = partial_compose(partial_compose(fe, k, he), i, ge)
                sign = -1 if (g.degree * h.degree) % 2 else 1
                assert lhs == rhs.scale(sign)


@pytest.mark.parametrize("f,g,h", [
    (M2, M2, M2), (M2, D2, D2), (D1, M2, D1),
])
def test_pre_jacobi_spec_triples(f, g, h):
    assert pre_jacobi_check(f, [g], [h])


def test_pre_jacobi_multiargument():
    assert pre_jacobi_check(M3, [M2, D1], [D2])
    assert pre_jacobi_check(M3, [D2], [M2, D1])


def test_derivation_on_composite_of_closed_generators():
    op = Difinfty()
    x = partial_compose(M2, 1, M2)
    images = {m_gen(2): OperadElement.zero()}
    assert extend_derivation(images, x).is_zero()


def test_derivation_relative_sign():
    # on d2 o1 d2: root-application and upper-application differ by (-1)^|d2|
    op = Difinfty()
    x = partial_compose(D2, 1, D2)
    got = op.diff_element(x)
    by_hand = OperadElement.zero()
    dd2 = op.diff(d_gen(2))
    (x_mono, _), = x
    for mono, c in dd2:
        sign, t = replace_region(x_mono, {0}, mono)
        by_hand = by_hand + OperadElement.single(t, c if sign > 0 else -c)
    for mono, c in dd2:
        sign, t = replace_region(x_mono, {1}, mono)
        c = -c  # one odd vertex precedes
        by_hand = by_hand + OperadElement.single(t, c if sign > 0 else -c)
    assert got == by_hand


def test_derivation_leibniz_rule():
    op = Difinfty()
    rng = random.Random(5)
    gens = alphabet(4)
    images = {g: op.diff(g) for g in gens}
    for _ in range(40):
        f = gen_el(rng.choice(gens))
        g = gen_el(rng.choice(gens))
        i = rng.randint(1, f.arity)
        comp = partial_compose(f, i, g)
        lhs = extend_derivation(images, comp)
        rhs = partial_compose(extend_derivation(images, f), i, g)
        second = partial_compose(f, i, extend_derivation(images, g))
        rhs = rhs + (second.scale(-1) if f.degree % 2 else second)
        assert lhs == rhs


def test_derivation_missing_image():
    with pytest.raises(KeyError):
        extend_derivation({}, M2)


def test_leading_monomial_of_single():
    x = single("(m2 (d1 _) _)").scale(Coefficient.lam())
    t, c = x.leading()
    assert repr(t) == "(m2 (d1 _) _)"
    assert c == Coefficient.lam()


def test_zero_has_no_leading():
    with pytest.raises(ValueError):
        OperadElement.zero().leading()


# ---------------------------------------------------------------------------
# The word kernels against the nested definitions in `trees`
# ---------------------------------------------------------------------------

def _embedded_vertices(node, root, pattern):
    """Planar indices, in ``node``, of the vertices of ``pattern`` grafted
    at vertex ``root`` with whole branches hanging off its leaves."""
    out, counter = [], 0

    def match(n, pat):
        nonlocal counter
        out.append(counter)
        counter += 1
        for c, pc in zip(n[1], pat[1]):
            if pc is not None:
                match(c, pc)
            elif c is not None:
                counter += node_weight(c)

    def find(n):
        nonlocal counter
        if counter == root:
            match(n, pattern)
            return True
        counter += 1
        return any(c is not None and find(c) for c in n[1])

    assert find(node)
    return out


def _regions(t, op, pool):
    """(region, monomials) pairs to replace in t: each vertex with the
    monomials of its differential, and each vertex with the vertex at its
    first input, the divisor shape `Contraction._split` replaces, with the
    monomials of ``pool`` of the region's arity."""
    out = []
    positions = [q for q, x in enumerate(t.word) if x]
    for v, gen in enumerate(t.gens):
        out.append(({v}, [m for m, _ in op.diff(gen)]))
        if t.word[positions[v] + 1]:
            arity = gen.arity + t.gens[v + 1].arity - 1
            out.append(({v, v + 1}, pool.get(arity, [])))
    return out


def test_replace_region_sign_is_the_sigma_koszul_sign():
    op = Difinfty()
    pool = {}
    for m in enumerate_monomials(4, 2):
        pool.setdefault(m.arity, []).append(m)
    checked = {1: 0, 2: 0}
    for t in enumerate_monomials(4, 3):
        for region, monomials in _regions(t, op, pool):
            root = min(region)
            for m in monomials:
                sign, out = replace_region(t, region, m)
                node = out.node
                verts = _embedded_vertices(node, root, m.node)
                d = Divisor(root, frozenset(verts))
                assert divisor_subtree(node, d) == m.node
                assert contract(node, d, "s") == contract(
                    t.node, Divisor(root, frozenset(region)), "s")
                degrees = [g.degree for g in out.gens]
                assert sign == sigma_koszul_sign(node, d, degrees)
                checked[len(region)] += 1
    assert checked[1] > 1000 and checked[2] > 1000


def _vertices_before_leaf(node, i):
    """Number of vertices before the ``i``-th leaf in planar order."""
    vertices = leaves = 0

    def walk(n):
        nonlocal vertices, leaves
        vertices += 1
        for c in n[1]:
            if c is None:
                leaves += 1
                if leaves == i:
                    return True
            elif walk(c):
                return True
        return False

    assert walk(node)
    return vertices


def test_compose_monomials_is_graft():
    gens = [m_gen(2), d_gen(1), d_gen(2), m_gen(3)]
    for f in enumerate_monomials(3, 3):
        for g in gens:
            gt = TreeMonomial.corolla(g)
            for i in range(1, f.arity + 1):
                (out, sign), = partial_compose(OperadElement.single(f), i,
                                               OperadElement.single(gt))
                assert out.node == graft(f.node, i, gt.node)
                # g's vertex moves past the vertices of f after leaf i
                k = _vertices_before_leaf(f.node, i)
                tail = sum(x.degree for x in f.gens[k:])
                assert sign == Coefficient.rational((-1) ** (g.degree * tail))


def _left_fold(pairs):
    out = OperadElement.zero()
    for c, x in pairs:
        out = out + x.scale(c)
    return out


def test_sum_equals_left_fold_of_add_and_scale():
    rng = random.Random(71)
    lam = Coefficient.lam()
    scalars = (1, -1, 2, Coefficient.one(), -Coefficient.one(), lam,
               lam * lam - Coefficient.rational(3), 0)
    monos = [t for t in enumerate_monomials(3, 2, min_degree=1,
                                            max_degree=1) if t.arity == 3]
    cancels = 0
    for _ in range(80):
        xs = [OperadElement({t: Coefficient.rational(rng.choice([1, -1, 2]))
                             for t in rng.sample(monos, rng.randint(1, 4))})
              for _ in range(rng.randint(1, 4))]
        pairs = [(rng.choice(scalars), x) for x in xs]
        if rng.random() < 0.3:
            pairs.append((-1, OperadElement.sum(pairs)))
        snapshot = [{w: dict(cell) for w, cell in x.terms.items()}
                    for _, x in pairs]
        got = OperadElement.sum(pairs)
        assert got == _left_fold(pairs)
        assert all(c for c in got.terms.values())
        assert (got.arity, got.degree) == \
            ((None, None) if got.is_zero() else (3, 1))
        assert [x.terms for _, x in pairs] == snapshot
        cancels += got.is_zero()
    assert cancels >= 5


def test_constructor_values_are_exact_raw_cells():
    t = TreeMonomial.corolla(m_gen(2))
    with pytest.raises(ValueError):
        OperadElement({t: 0.5})
    with pytest.raises(ValueError):
        OperadElement({t: Coefficient.one()}).scale(0.5)
    x = OperadElement({t: 2})
    assert x == OperadElement.single(t, 2) == OperadElement.single(
        t, Coefficient.rational(2))
    assert x.terms == {t.word: {0: 2}}
    assert OperadElement({t: Fraction(4, 2)}).terms == {t.word: {0: 2}}
    assert OperadElement({t: 0}).is_zero()
    assert element_records(x) == [{"coeff": "2", "tree": "(m2 _ _)"}]


def test_sum_rejects_mixed_arity():
    a = OperadElement.single(TreeMonomial.corolla(m_gen(2)))
    b = OperadElement.single(TreeMonomial.corolla(m_gen(3)))
    with pytest.raises(HomogeneityError):
        OperadElement.sum([(1, a), (1, b)])


def test_scale_by_units_returns_or_negates():
    x = OperadElement.single(TreeMonomial.corolla(d_gen(2)),
                             Coefficient.lam())
    assert x.scale(1) is x and x.scale(Coefficient.one()) is x
    assert x.scale(-1) == -x and x.scale(-Coefficient.one()) == -x
    assert x.scale(0).is_zero()


# ---------------------------------------------------------------------------
# The one-walk derivation kernel against its per-term body
# ---------------------------------------------------------------------------

def _derivation_oracle(images, x):
    """extend_derivation on nested nodes, with one Coefficient product and
    sum per image term: vertex v of each monomial is replaced by each
    image monomial m (`substitute`), at the sign (-1)**(degree of the
    vertices before v) times the Koszul sign of sigma(T, m's vertices)."""
    acc = {}
    for t, c in x:
        prefix = 0
        for v, gen in enumerate(t.gens):
            for m, w in images[gen]:
                node = substitute(t.node, v, m.node)
                d = Divisor(v, frozenset(_embedded_vertices(node, v, m.node)))
                degrees = [g.degree for g in vertex_labels(node)]
                sign = sigma_koszul_sign(node, d, degrees) * (-1) ** prefix
                w = c * w
                add_into(acc, TreeMonomial(node), -w if sign < 0 else w)
            prefix += gen.degree
    return OperadElement(acc)


def _seeded_coefficient(rng):
    """A nonzero rational polynomial in L with up to three powers."""
    powers = rng.sample(range(4), rng.randint(1, 3))
    return Coefficient({e: Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                    rng.randint(1, 3)) for e in powers})


@pytest.mark.parametrize("lam", [Coefficient.lam(),
                                 Coefficient.rational(Fraction(1, 2))],
                         ids=["generic", "half"])
def test_extend_derivation_equals_per_term_oracle(lam):
    op = Difinfty(lam)
    rng = random.Random(1301)
    gens = alphabet(5)
    images = {g: op.diff(g) for g in gens}
    scaled = {g: x.scale(_seeded_coefficient(rng)) for g, x in images.items()}
    buckets = {}
    for t in enumerate_monomials(5, 3):
        buckets.setdefault((t.arity, t.degree), []).append(t)
    multi_power = 0
    for g in gens:
        dg = images[g]
        if dg.is_zero():
            continue
        bucket = buckets.get((dg.arity, dg.degree), [])
        y = OperadElement({t: _seeded_coefficient(rng)
                           for t in rng.sample(bucket, min(6, len(bucket)))})
        # diff(g) is a cycle, so every power of L of its share cancels
        x = OperadElement.sum([(_seeded_coefficient(rng), dg), (1, y)])
        got = extend_derivation(images, x)
        assert got == _derivation_oracle(images, x)
        assert got == extend_derivation(images, y)
        assert extend_derivation(images, dg.scale(_seeded_coefficient(rng))
                                 ).is_zero()
        got = extend_derivation(scaled, x)
        assert got == _derivation_oracle(scaled, x)
        multi_power += sum(len(c.coeffs) > 1 for _, c in got)
        if not got.is_zero():
            assert (got.arity, got.degree) == (x.arity, x.degree - 1)
    assert multi_power > 50


def test_splicer_matches_replace_region_and_its_errors():
    t = TreeMonomial(parse_tree("(m3 (d2 _ (m2 _ _)) _ (d1 _))"))
    region = {1, 2}                     # d2 and its second input m2
    splice = region_splicer(t.word)(region)
    for m in enumerate_monomials(3, 2):
        if m.arity == 3:
            acc = {}
            splice(acc, ((leaf_pieces(m.word), {0: 1}),))
            ((word, e), v), = acc.items()
            sign, r = replace_region(t, region, m)
            assert e == 0 and (v, word) == (sign, r.word)
            assert r == TreeMonomial(r.node)
            assert r.degree == t.degree - splice.degree + m.degree
            assert word[:splice.start] == t.word[:splice.start] == t.word[:1]
    cases = [({0, 2}, TreeMonomial.corolla(m_gen(2)),
              "replacement region is not connected"),
             ({4}, TreeMonomial.corolla(d_gen(1)), "vertex 4 out of range"),
             ({1}, TreeMonomial.corolla(m_gen(3)),
              "replacement arity mismatch")]
    for bad_region, m, message in cases:
        with pytest.raises(ValueError, match=message):
            replace_region(t, bad_region, m)
        with pytest.raises(ValueError, match=message):
            region_splicer(t.word)(bad_region)(
                {}, ((leaf_pieces(m.word), {0: 1}),))
