"""Textual interchange formats.

Tree s-expressions:  tree := '(' gen child+ ')';  child := '_' | tree;
gen := ('m'|'d') uint.  Example: (m3 (d1 _) _ (m2 _ _)).

Element files are JSON lists of {"coeff": <coefficient string>,
"tree": <tree s-expression>} records; printing is canonical (records
sorted by the text of their tree s-expressions) so that parse o print is
the identity.
"""

from __future__ import annotations

import json
import re

from .coeffs import (Coefficient, add_into, format_coefficient,
                     parse_coefficient)
from .free_operad import OperadElement, TreeMonomial
from .trees import Generator, Node

_TOKEN_RE = re.compile(r"\(|\)|_|[A-Za-z]+\d+")


def format_tree(node: Node) -> str:
    parts = [node[0].symbol if isinstance(node[0], Generator) else str(node[0])]
    for c in node[1]:
        parts.append("_" if c is None else format_tree(c))
    return "(" + " ".join(parts) + ")"


def parse_tree(s: str) -> Node:
    from .dif_operads import parse_generator

    tokens = _TOKEN_RE.findall(s)
    if re.sub(r"\s+", "", s) != "".join(tokens):
        raise ValueError(f"unrecognized characters in tree {s!r}")
    pos = 0

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise ValueError(f"expected {tok!r} at token {pos} of {s!r}")
        pos += 1

    def parse_node() -> Node:
        nonlocal pos
        expect("(")
        if pos >= len(tokens) or tokens[pos] in "()_":
            raise ValueError(f"expected generator symbol in {s!r}")
        gen = parse_generator(tokens[pos])
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "_":
                children.append(None)
                pos += 1
            else:
                children.append(parse_node())
        expect(")")
        if len(children) != gen.arity:
            raise ValueError(
                f"generator {gen.symbol} has arity {gen.arity}, "
                f"got {len(children)} children")
        return (gen, tuple(children))

    node = parse_node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {s!r}")
    return node


def element_records(x: OperadElement) -> list[dict]:
    return sorted(({"coeff": format_coefficient(c),
                    "tree": format_tree(t.node)} for t, c in x),
                  key=lambda record: record["tree"])


def format_element(x: OperadElement) -> str:
    return json.dumps(element_records(x), indent=1)


def parse_element(text: str) -> OperadElement:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("element file must be a JSON list")
    terms: dict[TreeMonomial, Coefficient] = {}
    for rec in data:
        t = TreeMonomial(parse_tree(rec["tree"]))
        add_into(terms, t, parse_coefficient(rec["coeff"]))
    return OperadElement(terms)
