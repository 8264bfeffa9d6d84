import pytest

from operad_forge.coeffs import Coefficient
from operad_forge.contraction import Contraction, generator_above
from operad_forge.dif_operads import (
    Difinfty,
    DifRewriter,
    d_gen,
    enumerate_monomials,
    m_gen,
    project_p,
)
from operad_forge.formats import parse_tree
from operad_forge.free_operad import OperadElement, TreeMonomial, replace_region


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
    an = contraction.analyze_effective(mono("(m2 (m2 _ _) _)"))
    assert an.is_effective
    assert (an.divisor_root, an.divisor_child) == (0, 1)
    assert an.s_generator == m_gen(3)
    assert an.omega == 0


def test_analyze_not_effective(contraction):
    assert not contraction.analyze_effective(mono("(m2 _ (d1 _))")).is_effective
    assert not contraction.analyze_effective(mono("(m2 _ (m2 _ _))")).is_effective


def test_ancestor_positive_degree_allowed_when_leftmost(contraction):
    # a positive-degree vertex on the root path is fine when the effective
    # leaf is the leftmost leaf of the whole tree; it feeds the omega sign
    t = mono("(d2 (m2 (m2 _ _) _) _)")
    an = contraction.analyze_effective(t)
    assert an.is_effective and an.omega == 1 and an.effective_leaf == 1


def test_root_positive_degree_blocks_left_leaves(contraction):
    # the divisor sits right of leaf 1, whose root path has degree 1: blocked
    t = mono("(d2 _ (m2 (m2 _ _) _))")
    assert not contraction.analyze_effective(t).is_effective


def test_positive_degree_between_divisor_and_leaf_blocks(contraction):
    # a positive-degree vertex below the candidate on the leftmost path
    # violates the clean-path condition
    t = mono("(m2 (m2 (d2 _ _) _) _)")
    assert not contraction.analyze_effective(t).is_effective


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
        an = contraction.analyze_effective(t)
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
        contraction.analyze_effective(t)


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
        an = contraction.analyze_effective(t)
        cands = _effective_by_definition(t.node)
        assert len(cands) <= 1
        assert an.is_effective == bool(cands), repr(t)
        if cands:
            leaf, v, w = cands[0]
            assert (an.effective_leaf, an.divisor_root, an.divisor_child) \
                == (leaf, v, w)
            assert an.omega == sum(g.degree for g in t.gens[:v])


def test_cached_values_are_never_changed_in_place():
    # H, tbar and the generator differentials are handed out by reference;
    # sums must build fresh dicts instead of accumulating into them
    op = Difinfty()
    c = Contraction(op)
    c.verify(3, 2, 3)
    diff_snap = {g: dict(x.terms) for g, x in op._diff_cache.items()}
    h_snap = {t: dict(x.terms) for t, x in c._h.items()}
    tbar_snap = {t: dict(x.terms) for t, x in c._tbar.items()}
    assert len(h_snap) > 100
    n, bad = c.verify(4, 2, 3)
    assert n > 0 and bad == []
    groups = {}
    for t in h_snap:
        groups.setdefault((t.arity, t.degree), []).append(t)
    for ts in groups.values():
        x = OperadElement({t: Coefficient.rational(1) for t in ts})
        assert c.apply(x) == c.apply(x)
    assert {g: op._diff_cache[g].terms for g in diff_snap} == diff_snap
    assert {t: c._h[t].terms for t in h_snap} == h_snap
    assert {t: c._tbar[t].terms for t in tbar_snap} == tbar_snap
