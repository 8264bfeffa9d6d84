from fractions import Fraction

import pytest

from operad_forge import contraction as contraction_module
from operad_forge.coeffs import Coefficient
from operad_forge.contraction import Contraction, generator_above
from operad_forge.dif_operads import (
    Difinfty,
    DifRewriter,
    InternalInvariantError,
    d_gen,
    enumerate_monomials,
    m_gen,
    project_p,
)
from operad_forge.formats import parse_tree
from operad_forge.free_operad import (OperadElement, TreeMonomial,
                                      image_terms, replace_region)
from operad_forge.trees import DEGREE, GENS, decode


def mono(s):
    return TreeMonomial(parse_tree(s))


def el(s):
    return OperadElement.single(mono(s))


@pytest.fixture(scope="module")
def op():
    return Difinfty()


@pytest.fixture(scope="module")
def contraction(op):
    return Contraction(op)


def test_leading_monomials_of_differentials(op):
    lead, c = op.diff(m_gen(3)).leading()
    assert lead == mono("(m2 (m2 _ _) _)")
    assert c == Coefficient.rational(-1)
    lead, c = op.diff(d_gen(2)).leading()
    assert lead == mono("(d1 (m2 _ _))")
    assert c == Coefficient.one()


def test_leading_coefficients_all_pm_one(contraction):
    for n in range(1, 8):
        if n >= 2:
            shape, c = contraction.typical_info(m_gen(n + 1))
            assert c == -1
            assert shape == TreeMonomial(
                parse_tree(f"(m{n} (m2 _ _)" + " _" * (n - 1) + ")"))
        shape, c = contraction.typical_info(d_gen(n + 1))
        assert c == 1


def test_analyze_effective_whole_tree(contraction):
    an = contraction.analyze_effective(mono("(m2 (m2 _ _) _)").word)
    assert an.is_effective
    assert (an.divisor_root, an.divisor_child) == (0, 1)
    assert an.s_generator == m_gen(3)
    assert an.omega == 0


def test_analyze_not_effective(contraction):
    assert not contraction.analyze_effective(mono("(m2 _ (d1 _))").word).is_effective
    assert not contraction.analyze_effective(mono("(m2 _ (m2 _ _))").word).is_effective


def test_ancestor_positive_degree_allowed_when_leftmost(contraction):
    # a positive-degree vertex on the root path is fine when the effective
    # leaf is the leftmost leaf of the whole tree; it feeds the omega sign
    t = mono("(d2 (m2 (m2 _ _) _) _)")
    an = contraction.analyze_effective(t.word)
    assert an.is_effective and an.omega == 1 and an.effective_leaf == 1


def test_root_positive_degree_blocks_left_leaves(contraction):
    # the divisor sits right of leaf 1, whose root path has degree 1: blocked
    t = mono("(d2 _ (m2 (m2 _ _) _))")
    assert not contraction.analyze_effective(t.word).is_effective


def test_positive_degree_between_divisor_and_leaf_blocks(contraction):
    # a positive-degree vertex below the candidate on the leftmost path
    # violates the clean-path condition
    t = mono("(m2 (m2 (d2 _ _) _) _)")
    assert not contraction.analyze_effective(t.word).is_effective


def test_h_bar_examples(contraction):
    assert contraction.h_bar(mono("(m2 (m2 _ _) _)")) == el("(m3 _ _ _)").scale(-1)
    assert contraction.h_bar(mono("(d1 (m2 _ _))")) == el("(d2 _ _)")


def test_h_bar_upper_divisor_replacement(contraction):
    # ((m2 o1 m2) o1 m2): the effective divisor is the upper pair, so the
    # replacement happens above the root
    got = contraction.h_bar(mono("(m2 (m2 (m2 _ _) _) _)"))
    assert got == el("(m2 (m3 _ _ _) _)").scale(-1)


def test_h_examples(contraction):
    assert contraction.apply(el("(m2 (m2 _ _) _)")) == el("(m3 _ _ _)").scale(-1)
    assert contraction.apply(el("(d1 (m2 _ _))")) == el("(d2 _ _)")
    assert contraction.apply(el("(m2 _ (d1 _))")).is_zero()


def test_h_raises_degree_by_one(contraction):
    x = el("(d1 (m2 _ _))")
    h = contraction.apply(x)
    assert h.degree == x.degree + 1


def test_replacement_round_trip(contraction, op):
    # replacing the divisor by S and re-expanding S to its leading shape
    # reproduces the monomial
    for s in ("(m2 (m2 _ _) _)", "(d1 (m2 _ _))", "(m2 (m2 (m2 _ _) _) _)",
              "(d2 (d1 (m2 _ _)) _)"):
        t = mono(s)
        an = contraction.analyze_effective(t.word)
        if not an.is_effective:
            continue
        s_hat, _ = contraction.typical_info(an.s_generator)
        sign, collapsed = replace_region(
            t, {an.divisor_root, an.divisor_child},
            TreeMonomial.corolla(an.s_generator))
        assert sign == 1
        # the divisor root keeps its planar index through the collapse
        v = an.divisor_root
        assert collapsed.gens[v] == an.s_generator
        sign2, restored = replace_region(collapsed, {v}, s_hat)
        assert sign2 == 1
        assert restored == t


def test_effective_uniqueness_holds_on_enumeration(contraction):
    # analyze_effective raises if two candidates pass; sweeping a few
    # thousand monomials exercises the assertion
    for t in enumerate_monomials(4, 4, min_degree=1, max_degree=2):
        contraction.analyze_effective(t.word)


def test_strict_decrease_of_recursion(contraction):
    # every tbar monomial is strictly smaller; h_monomial asserts this
    # internally, so a sweep doubles as the regression test
    for t in enumerate_monomials(4, 3, min_degree=1, max_degree=2):
        contraction.h_monomial(t)


def test_identity_on_corollas(contraction):
    for g in (m_gen(3), d_gen(2), d_gen(3), m_gen(4), d_gen(4)):
        assert contraction.check_identity(TreeMonomial.corolla(g)).is_zero()


def test_identity_exhaustive_small(contraction):
    checked, bad = contraction.verify(4, 2, 3)
    assert bad == []
    assert checked > 200


def test_degree_zero_behavior(contraction, op):
    # on degree-0 monomials H(diff T) = 0 trivially and diff(H T) is a
    # boundary, hence killed by the projection onto the quotient
    rw = DifRewriter()
    for t in enumerate_monomials(4, 3, min_degree=0, max_degree=0,
                                 gens=[m_gen(2), d_gen(1)]):
        x = OperadElement.single(t)
        assert op.diff_element(x).is_zero()
        h = contraction.apply(x)
        if not h.is_zero():
            assert project_p(op.diff_element(h), rw).is_zero()


def test_h_bar_rejects_non_effective(contraction):
    with pytest.raises(ValueError):
        contraction.h_bar(mono("(m2 _ (d1 _))"))


def test_generator_above():
    assert generator_above(m_gen(2)) == m_gen(3)
    assert generator_above(d_gen(4)) == d_gen(5)


def _effective_by_definition(node):
    """Candidates (leaf, root, child) of the effective-divisor definition
    in the module docstring, read off the nested tree."""
    labels, slot, first, leaf_chains = [], [], [], []

    def walk(n, s, chain):
        me = len(labels)
        labels.append(n[0])
        slot.append(s)
        first.append(None)
        chain = chain + [me]
        for i, c in enumerate(n[1]):
            if c is None:
                leaf_chains.append(chain)
            else:
                if i == 0:
                    first[me] = len(labels)
                walk(c, i, chain)

    walk(node, None, [])

    def m2_first_input(u):
        return slot[u] == 0 and labels[u].symbol == "m2"

    out = []
    for v, w in enumerate(first):
        if w is None or labels[w].symbol != "m2":
            continue
        path = [v]
        while first[path[-1]] is not None:
            path.append(first[path[-1]])
        leaf = next(k for k, chain in enumerate(leaf_chains)
                    if chain[-1] == path[-1])
        ok = (all(labels[u].degree == 0 for u in path[1:])
              and not any(m2_first_input(u) for u in path[2:])
              and all(labels[u].degree == 0 and not m2_first_input(u)
                      for chain in leaf_chains[:leaf] for u in chain))
        if ok:
            out.append((leaf + 1, v, w))
    return out


def test_analyze_effective_matches_definition(contraction):
    for t in enumerate_monomials(4, 4, min_degree=0, max_degree=3):
        an = contraction.analyze_effective(t.word)
        cands = _effective_by_definition(t.node)
        assert len(cands) <= 1
        assert an.is_effective == bool(cands), repr(t)
        if cands:
            leaf, v, w = cands[0]
            assert (an.effective_leaf, an.divisor_root, an.divisor_child) \
                == (leaf, v, w)
            assert an.omega == sum(g.degree for g in t.gens[:v])


def _analyze_effective_by_generators(c, t):
    """The effective-divisor scan as generator loops over the word's
    tokens: the reference for the tuple searches of `analyze_effective`."""
    word, m2 = t.word, c._m2
    result = contraction_module._NOT_EFFECTIVE
    s = 0
    zeros = (q for q, x in enumerate(word) if not x)
    for leaf, z in enumerate(zeros, 1):
        top = max((q for q in range(s + 1, z) if word[q] == m2),
                  default=None)
        if top is not None:
            if all(DEGREE[word[q]] == 0 for q in range(top, z)):
                v = top - 1
                root = v - (leaf - 1)   # planar index: zeros before v
                s_gen = generator_above(GENS[word[v]])
                _, c_s = c.typical_info(s_gen)
                omega = sum(DEGREE[word[q]] for q in range(s, v))
                result = contraction_module.EffectiveAnalysis(
                    True, root, root + 1, s_gen, c_s, leaf, omega)
            break
        if any(DEGREE[word[q]] for q in range(s, z)):
            break
        s = z + 1
    return result


def test_analyze_effective_matches_generator_scan(contraction, op):
    # the enumeration to weight 4 with degree-0 trees, and the monomials
    # the differential produces from the weight-3 enumeration
    produced = {}
    for t in enumerate_monomials(5, 3, min_degree=1, max_degree=3):
        produced.update(op.diff_element(OperadElement.single(t)))
    monomials = (enumerate_monomials(5, 4, min_degree=0, max_degree=4)
                 + list(produced))
    assert len(monomials) == 9113
    effective = 0
    for t in monomials:
        an = contraction.analyze_effective(t.word)
        assert an == _analyze_effective_by_generators(contraction, t), repr(t)
        effective += an.is_effective
    assert 0 < effective < len(monomials)


def test_cached_values_are_never_changed_in_place():
    # H values, the shared zero and the generator differentials are handed
    # out by reference; sums must build fresh dicts instead of accumulating
    # into them.  The memo is keyed by word and keeps only nonzero values,
    # each one flat tuple (monomial, power of L, rational, ...).
    op = Difinfty()
    c = Contraction(op)
    c.verify(3, 2, 3)
    diff_snap = {g: {w: dict(cell) for w, cell in x.terms.items()}
                 for g, x in op._diff_cache.items()}
    h_snap = dict(c._h)
    assert len(h_snap) > 100
    n, bad = c.verify(4, 2, 3)
    assert n > 0 and bad == []
    assert c._h and all(c._h.values())
    assert all(all(h[2::3]) and len(set(zip(h[::3], h[1::3]))) == len(h) // 3
               for h in c._h.values())
    shared = {id(v) for h in c._h.values() for v in h[2::3]}
    assert shared == {id(v) for v in c._rationals.values()}
    groups = {}
    for w in h_snap:
        t = TreeMonomial(decode(w))
        groups.setdefault((t.arity, t.degree), []).append(t)
    for ts in groups.values():
        x = OperadElement({t: Coefficient.rational(1) for t in ts})
        assert c.apply(x) == c.apply(x)
    assert {g: op._diff_cache[g].terms for g in diff_snap} == diff_snap
    assert all(c._h[w] is h for w, h in h_snap.items())
    assert contraction_module._ZERO.terms == {}
    entries = len(c._h)
    assert c.h_monomial(mono("(m2 _ (d1 _))")) is contraction_module._ZERO
    assert len(c._h) == entries


def test_decrease_check_fires(monkeypatch):
    # with the resumed comparison reporting "not smaller" for every word,
    # the first tbar monomial fails the strict decrease, so the check runs
    # on each frame's first visit
    c = Contraction(Difinfty())
    monkeypatch.setattr(contraction_module, "smaller_from",
                        lambda word, start, keys: False)
    with pytest.raises(InternalInvariantError, match="failed to decrease"):
        c.h_monomial(mono("(m2 (m2 (m2 _ _) _) _)"))


def test_block_closure_fires():
    # a replacement term of the right arity and another degree sends tbar
    # out of the parent's (arity, degree) block, which the order comparison
    # alone would not catch
    c = Contraction(Difinfty())
    c.typical_info(m_gen(3))
    s_hat, c_s, degree, raw, corolla = c._typical[m_gen(3)]
    stray = el("(m2 _ (d2 _ _))")
    assert stray.arity == s_hat.arity
    assert stray.degree != degree
    c._typical[m_gen(3)] = (s_hat, c_s, stray.degree,
                            image_terms(stray) + raw[1:], corolla)
    with pytest.raises(InternalInvariantError, match="left its"):
        c.h_monomial(mono("(m2 (m2 (m2 _ _) _) _)"))


def _naive_h(c, t):
    """H(t) = h_bar(t) + sum of c * H(m) over the tbar of t, by plain
    recursion with no memo shared between calls."""
    an = c.analyze_effective(t.word)
    if not an.is_effective:
        return OperadElement()
    s_hat, c_s = c.typical_info(an.s_generator)
    repl = OperadElement.single(s_hat) - c.op.diff(an.s_generator).scale(
        Fraction(1, c_s))
    region = {an.divisor_root, an.divisor_child}
    terms = []
    for m, w in repl:
        sign, new_t = replace_region(t, region, m)
        terms.append((sign, OperadElement.single(new_t, w)))
    tbar = OperadElement.sum(terms)
    return OperadElement.sum(
        [(1, c.h_bar(t))] + [(w, _naive_h(c, m)) for m, w in tbar])


def test_h_matches_naive_recursion():
    c = Contraction(Difinfty())
    nonzero = 0
    for t in enumerate_monomials(4, 3, min_degree=1, max_degree=2):
        h = c.h_monomial(t)
        assert h == _naive_h(c, t), repr(t)
        nonzero += not h.is_zero()
    assert nonzero > 20


def test_h_does_not_depend_on_frame_order():
    # a contraction whose memo was filled by verify gives the same H as a
    # fresh one, which fills its memo in a different order
    warm = Contraction(Difinfty())
    assert warm.verify(4, 2, 3)[1] == []
    fresh = Contraction(Difinfty())
    for t in enumerate_monomials(4, 3, min_degree=1, max_degree=2):
        assert fresh.h_monomial(t) == warm.h_monomial(t), repr(t)


def test_corrupted_memo_entry_gives_the_element_route_residual():
    # check_identity sums raw cells; with one memo value made wrong, it must
    # still equal diff H + H diff - id taken through OperadElements, and be
    # nonzero exactly on the monomials that read that value, as H(t) or as
    # H of a monomial of diff(t)
    op = Difinfty()
    c = Contraction(op)
    monomials = enumerate_monomials(4, 3, min_degree=1, max_degree=2)
    assert c.violations(monomials) == []
    diffs = {t: op.diff_element(OperadElement.single(t)) for t in monomials}
    reach = {}
    for t in monomials:
        for w in {t.word} | set(diffs[t].terms):
            reach.setdefault(w, set()).add(t)
    w = next(w for w, h in c._h.items() if len(reach.get(w, ())) > 2
             and not op.diff_element(OperadElement.from_cells(
                 [((h[0], 0), 1)])).is_zero())
    h = c._h[w]
    c._h[w] = (h[0], h[1], -h[2]) + h[3:]
    for t in monomials:
        x = OperadElement.single(t)
        got = c.check_identity(t)
        assert got == op.diff_element(c.apply(x)) + c.apply(diffs[t]) - x
        assert got.is_zero() == (t not in reach[w]), repr(t)
