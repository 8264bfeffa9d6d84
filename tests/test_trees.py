import itertools
from fractions import Fraction

import pytest

from operad_forge.contraction import Contraction
from operad_forge.dif_operads import (Difinfty, d_gen, enumerate_monomials,
                                      m_gen)
from operad_forge.formats import parse_tree
from operad_forge.free_operad import TreeMonomial, word_monomial
from operad_forge.trees import (
    ForeignGeneratorError,
    Generator,
    decode,
    encode,
    gen_id,
    leaf_keys_from,
    smaller_from,
    subtree_end,
    word_order_key,
)
from oracles import (
    Divisor,
    contract,
    corolla,
    divisor_subtree,
    graft,
    monomial_order_key,
    node_arity,
    node_weight,
    path_sequence,
    sigma_permutation,
    vertex_labels,
)


def tree(s):
    return parse_tree(s)


def test_planar_order_corolla():
    t = corolla(m_gen(3))
    assert vertex_labels(t) == [m_gen(3)]


def test_planar_order_two_children():
    t = tree("(m2 (m2 _ _) (d1 _))")
    assert [g.symbol for g in vertex_labels(t)] == ["m2", "m2", "d1"]


def test_planar_order_depth_first():
    # root, left child A whose own child is C, right child B
    t = tree("(m2 (d1 (d1 _)) (m2 _ _))")
    assert [g.symbol for g in vertex_labels(t)] == ["m2", "d1", "d1", "m2"]


def test_weight_and_arity():
    t = tree("(m3 (d1 _) _ (m2 _ _))")
    assert node_weight(t) == 3
    assert node_arity(t) == 4


def test_contract_whole_tree():
    t = tree("(m2 (m2 _ _) _)")
    out = contract(t, Divisor(0, frozenset({0, 1})), label="c")
    assert out == ("c", (None, None, None))


def test_contract_corolla_is_idempotent():
    t = corolla(d_gen(1))
    assert contract(t, Divisor(0, frozenset({0})), label="c") == ("c", (None,))


def test_contract_chain():
    # 3-vertex chain, contract the top 2-vertex divisor -> 2-vertex chain
    t = tree("(d1 (d1 (d1 _)))")
    out = contract(t, Divisor(1, frozenset({1, 2})), label="c")
    assert out == (d_gen(1), (("c", (None,)),))


def test_contract_rejects_non_divisor():
    t = tree("(m2 (d1 _) (d1 _))")
    with pytest.raises(ValueError):
        contract(t, Divisor(1, frozenset({1, 2})))


def test_divisor_subtree():
    t = tree("(m2 (m2 (d1 _) _) _)")
    sub = divisor_subtree(t, Divisor(0, frozenset({0, 1})))
    assert sub == (m_gen(2), ((m_gen(2), (None, None)), None))


def test_sigma_whole_and_single():
    t = tree("(m2 (d1 _) (d1 _))")
    assert sigma_permutation(t, Divisor(0, frozenset({0, 1, 2}))) == (0, 1, 2)
    assert sigma_permutation(t, Divisor(2, frozenset({2}))) == (0, 1, 2)


def test_sigma_right_child():
    t = tree("(m2 (d1 _) (d1 _))")
    assert sigma_permutation(t, Divisor(2, frozenset({2}))) == (0, 1, 2)


def test_sigma_interleaved():
    # divisor {root, right child}; the left branch vertices move after it
    t = tree("(m2 (d1 _) (d1 _))")
    perm = sigma_permutation(t, Divisor(0, frozenset({0, 2})))
    assert perm == (0, 2, 1)


def test_sigma_prefix_identity_property():
    for t in enumerate_monomials(4, 4):
        n = t.weight
        from oracles import _parents

        parents = _parents(t.node)
        for root in range(n):
            # the maximal divisor rooted there (whole subtree)
            verts = {v for v in range(n)
                     if _is_descendant(parents, v, root)}
            perm = sigma_permutation(t.node, Divisor(root, frozenset(verts)))
            assert perm[:root] == tuple(range(root))


def _is_descendant(parents, v, root):
    while v is not None:
        if v == root:
            return True
        v = parents[v]
    return False


def test_path_sequences():
    assert [tuple(g.symbol for g in w)
            for w in path_sequence(corolla(m_gen(3)))] == \
        [("m3",), ("m3",), ("m3",)]
    t = tree("(d1 (m2 _ _))")
    assert [tuple(g.symbol for g in w) for w in path_sequence(t)] == \
        [("d1", "m2"), ("d1", "m2")]
    t = tree("(m2 (d1 _) _)")
    assert [tuple(g.symbol for g in w) for w in path_sequence(t)] == \
        [("m2", "d1"), ("m2",)]


def test_compare_rule_iii():
    a = tree("(d1 (m2 _ _))")
    b = tree("(m2 (d1 _) _)")
    assert monomial_order_key(a) > monomial_order_key(b)


def test_compare_rule_ii():
    a = tree("(m2 (m2 _ _) _)")
    b = corolla(m_gen(3))
    assert monomial_order_key(a) < monomial_order_key(b)


def test_compare_reflexive():
    t = tree("(m3 (d1 _) _ (m2 _ _))")
    assert monomial_order_key(t) == monomial_order_key(t)


def test_typical_monomials_are_maximal_shapes():
    # the "typical" leading shapes beat their differential siblings
    from operad_forge.dif_operads import Difinfty

    op = Difinfty()
    lead, _ = op.diff(m_gen(4)).leading()
    assert lead == TreeMonomial(tree("(m3 (m2 _ _) _ _)"))
    lead, _ = op.diff(d_gen(4)).leading()
    assert lead == TreeMonomial(tree("(d3 (m2 _ _) _ _)"))


def test_order_total_and_path_sequences_injective():
    monomials = [t for t in enumerate_monomials(4, 3)]
    keys = {}
    for t in monomials:
        key = t.order_key()
        assert key not in keys, f"order key collision: {t!r} vs {keys[key]!r}"
        keys[key] = t
    # antisymmetry and transitivity come for free from the key encoding;
    # spot-check trichotomy on pairs
    for a, b in itertools.islice(itertools.combinations(monomials, 2), 2000):
        ka, kb = a.order_key(), b.order_key()
        assert (ka < kb) != (ka > kb)


def test_foreign_generators_rejected():
    weird = Generator("x2", 2, 0)
    with pytest.raises(ForeignGeneratorError):
        monomial_order_key(corolla(weird))


def test_graft_leaf_indexing():
    t = graft(corolla(m_gen(2)), 2, corolla(d_gen(1)))
    assert t == (m_gen(2), (None, (d_gen(1), (None,))))
    with pytest.raises(ValueError):
        graft(corolla(m_gen(2)), 3, corolla(d_gen(1)))


# ---------------------------------------------------------------------------
# The word encoding against the nested definitions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def monomials_5_4():
    return enumerate_monomials(5, 4)


def test_word_node_round_trip(monomials_5_4):
    for t in monomials_5_4:
        node = t.node
        assert decode(t.word) == node
        assert encode(node) == t.word
        assert TreeMonomial(node) == t
        assert (t.arity, t.weight) == (node_arity(node), node_weight(node))
        assert t.degree == sum(g.degree for g in vertex_labels(node))
        assert list(t.gens) == vertex_labels(node)


def test_word_order_key_matches_definition(monomials_5_4):
    for t in monomials_5_4:
        assert t.order_key() == monomial_order_key(t.node)


def _smaller(a, b):
    return (word_order_key(a.word, a.arity, a.degree)
            < word_order_key(b.word, b.arity, b.degree))


def test_resumed_order_agrees_on_every_split(monomials_5_4, monkeypatch):
    # every (tbar, parent) pair that H's decrease check meets, compared from
    # the splice point both ways, the non-decreasing way included
    pairs = []
    split = Contraction._split

    def recording(self, word, an):
        out = split(self, word, an)
        t = word_monomial(word)
        p = out[2]
        assert t.word[p] and p - t.word[:p].count(0) == an.divisor_root
        pairs.extend((t, word_monomial(w), p)
                     for (w, _), v in out[1].items() if v)
        return out

    monkeypatch.setattr(Contraction, "_split", recording)
    c = Contraction(Difinfty())
    for t in monomials_5_4:
        c.h_monomial(t)
    assert len(pairs) > 10000
    for parent, m, p in pairs:
        assert m.word[:p] == parent.word[:p]
        assert smaller_from(m.word, p, leaf_keys_from(parent.word, p)) \
            == _smaller(m, parent), (m, parent)
        assert smaller_from(parent.word, p, leaf_keys_from(m.word, p)) \
            == _smaller(parent, m), (m, parent)


def test_resumed_order_agrees_from_every_shared_prefix():
    blocks = {}
    for t in enumerate_monomials(4, 3):
        blocks.setdefault((t.arity, t.degree), []).append(t)
    for block in blocks.values():
        for a, b in itertools.product(block, repeat=2):
            shared = next((i for i, (x, y) in enumerate(zip(a.word, b.word))
                           if x != y), len(a.word))
            for start in range(shared + 1):
                assert smaller_from(a.word, start,
                                    leaf_keys_from(b.word, start)) \
                    == _smaller(a, b), (a, b, start)


def test_subtree_end_is_a_subtree_slice():
    t = TreeMonomial(tree("(m3 (d1 _) _ (m2 (d2 _ _) _))"))
    assert [subtree_end(t.word, p) for p in (0, 1, 4, 5)] == [9, 3, 9, 8]
    assert decode(t.word[4:9]) == tree("(m2 (d2 _ _) _)")


def test_foreign_generator_builds_but_does_not_order():
    weird = Generator("x2", 2, 1)
    t = TreeMonomial(graft(corolla(weird), 1, corolla(m_gen(2))))
    assert (t.arity, t.degree, t.weight) == (3, 1, 2)
    assert t.gens[0] is weird and repr(t) == "(x2 (m2 _ _) _)"
    with pytest.raises(ForeignGeneratorError):
        t.order_key()
    with pytest.raises(ForeignGeneratorError):
        t.order_key()


def test_generator_checks_its_arity_and_interns_by_value():
    with pytest.raises(ValueError, match="arity must be >= 1"):
        Generator("x0", 0, 0)
    a, b = Generator("x3", 3, 1), Generator("x3", 3, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert gen_id(a) == gen_id(b) and repr(b) == "x3"
    assert gen_id(Generator("x3", 3, 2)) != gen_id(a)


def test_monomial_pickles_by_its_nested_form():
    import pickle

    t = TreeMonomial(tree("(m3 (d1 _) _ (m2 _ _))"))
    assert pickle.loads(pickle.dumps(t)) == t


# Interns 300 generators of its own first, so that every id it gives m_n
# and d_n differs from this process's, then unpickles from stdin.
UNPICKLE_ELSEWHERE = """
import pickle, sys
from operad_forge.formats import format_element
from operad_forge.trees import Generator, gen_id
for k in range(300):
    gen_id(Generator(f"spare{k}", 1, 0))
t, x = pickle.loads(sys.stdin.buffer.read())
print(t.word)
print(repr(t))
print(format_element(x))
"""


def test_monomial_and_element_pickle_across_processes():
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    from operad_forge.coeffs import Coefficient
    from operad_forge.formats import format_element
    from operad_forge.free_operad import OperadElement

    t = TreeMonomial(tree("(m3 (d1 _) _ (m2 _ _))"))
    x = OperadElement({t: Coefficient.lam(2, Fraction(1, 2)),
                       TreeMonomial(tree("(m2 (m3 _ _ _) (d1 _))")): -3})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", UNPICKLE_ELSEWHERE],
                          input=pickle.dumps((t, x)), env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    word, text, element = proc.stdout.decode().split("\n", 2)
    assert word != str(t.word)
    assert text == repr(t)
    assert element == format_element(x) + "\n"
