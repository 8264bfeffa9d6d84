#!/usr/bin/env python3
"""A short guided tour of the resolution machinery.

Prints the differential of a few generators, drives the homotopy
contraction on an example, and exercises the quotient normalizer, all at
generic weight.
"""

import argparse

from operad_forge.contraction import Contraction
from operad_forge.dif_operads import (
    Difinfty,
    DifRewriter,
    parse_generator,
    project_p,
)
from operad_forge.formats import format_tree, parse_tree
from operad_forge.free_operad import OperadElement, TreeMonomial


def show(title, element):
    print(f"{title}:")
    if element.is_zero():
        print("   0")
        return
    for mono, coeff in sorted(element, key=lambda kv: format_tree(kv[0].node)):
        print(f"   ({coeff}) * {format_tree(mono.node)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gen", default="d3",
                        help="generator whose differential to display")
    args = parser.parse_args()

    op = Difinfty()
    gen = parse_generator(args.gen)
    show(f"diff({gen.symbol})", op.diff(gen))
    show(f"diff(diff({gen.symbol}))  [must be 0]",
         op.diff_element(op.diff(gen)))

    contraction = Contraction(op)
    sample = OperadElement.single(
        TreeMonomial(parse_tree("(m2 (m2 (m2 _ _) _) _)")))
    show("H((m2 o1 m2) o1 m2)", contraction.apply(sample))

    x = op.diff_element(contraction.apply(sample)) + \
        contraction.apply(op.diff_element(sample))
    show("(diff H + H diff) of it  [degree 0: equals diff H only]", x)

    rw = DifRewriter()
    deg0 = OperadElement.single(
        TreeMonomial(parse_tree("(d1 (m2 (m2 _ _) _))")))
    show("normal form of d1 o1 (m2 o1 m2) in the quotient",
         project_p(deg0, rw))


if __name__ == "__main__":
    main()
