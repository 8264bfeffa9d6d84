"""Finite-dimensional graded spaces, multilinear maps between their tensor
powers, suspension translations and the brace calculus on suspended maps.

Suspension convention: s is a degree +1 symbol, moving s or s^-1 past a
degree-p element costs (-1)**p, and s^-1 s = s s^-1 = id with no sign.  The
two translations

    iso1:  Hom((sV)^n, sV) -> Hom(V^n, V)     F |-> s^-1 o F o s^n
    iso2:  Hom((sV)^n, V)  -> Hom(V^n, V)     G |->        G o s^n

then carry the sign (-1)**(sum_j (n-j) p_j) on inputs of V-degrees
p_1..p_n, and similarly for their inverses.

Composition and braces run on one kernel, `_compose_sum`.  It indexes each
slot map by output basis element once per call, with each entry's block
degree, then adds the products of every insertion position of every term
into one table of raw Q[L] values; each output entry becomes a Coefficient
once, at the end.  The Koszul sign is summed as an exponent while a
composite grows slot by slot and is applied once, by taking f's row or
its negative.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from .coeffs import Coefficient


class GradedSpace:
    """Finitely supported dims per integer degree, with a flat basis
    enumeration (degree-major, ascending)."""

    __slots__ = ("dims", "degrees", "_offsets")

    def __init__(self, dims: Mapping[int, int]):
        self.dims = {int(d): int(n) for d, n in sorted(dims.items()) if n > 0}
        degs: list[int] = []
        offsets: dict[int, int] = {}
        for d, n in self.dims.items():
            offsets[d] = len(degs)
            degs.extend([d] * n)
        self.degrees = tuple(degs)
        self._offsets = offsets

    def dim(self) -> int:
        return len(self.degrees)

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def basis(self) -> range:
        return range(len(self.degrees))

    def shift(self, k: int = 1) -> "GradedSpace":
        """Suspension: same flat basis, degrees moved up by k."""
        return GradedSpace({d + k: n for d, n in self.dims.items()})

    def label(self, i: int) -> str:
        d = self.degrees[i]
        return f"{d}:{i - self._offsets[d]}"

    def id_of_label(self, label: str) -> int:
        d_str, k_str = label.split(":")
        d, k = int(d_str), int(k_str)
        if d not in self.dims or not 0 <= k < self.dims[d]:
            raise ValueError(f"no basis element {label!r}")
        return self._offsets[d] + k

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class MultiMap:
    """Multilinear map source^(tensor arity) -> target of fixed degree,
    stored as a sparse table on basis tuples (flat indices)."""

    __slots__ = ("source", "target", "arity", "degree", "table")

    def __init__(self, source: GradedSpace, target: GradedSpace, arity: int,
                 degree: int,
                 table: Optional[Mapping[tuple, Mapping[int, Coefficient]]] = None,
                 check: bool = True):
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        tab: dict[tuple, dict[int, Coefficient]] = {}
        if table:
            for key, out in table.items():
                row = {b: c for b, c in out.items() if not c.is_zero()}
                if row:
                    tab[tuple(key)] = row
        self.table = tab
        if check:
            self._check()

    def _check(self):
        for key, out in self.table.items():
            if len(key) != self.arity:
                raise ValueError("input tuple of wrong length")
            in_deg = sum(self.source.degree_of(i) for i in key)
            for b in out:
                if self.target.degree_of(b) != in_deg + self.degree:
                    raise ValueError(
                        f"entry {key}->{b} violates degree {self.degree}")

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, arity: int,
             degree: int) -> "MultiMap":
        return MultiMap(source, target, arity, degree, None, check=False)

    def is_zero(self) -> bool:
        return not self.table

    def _compatible(self, other: "MultiMap"):
        if (self.source != other.source or self.target != other.target
                or self.arity != other.arity):
            raise ValueError("incompatible maps")
        if self.table and other.table and self.degree != other.degree:
            raise ValueError("mixed degrees")

    def __add__(self, other: "MultiMap") -> "MultiMap":
        self._compatible(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        tab = {k: dict(v) for k, v in self.table.items()}
        for k, out in other.table.items():
            row = tab.setdefault(k, {})
            for b, c in out.items():
                tot = row.get(b)
                tot = tot + c if tot is not None else c
                if tot.is_zero():
                    row.pop(b, None)
                else:
                    row[b] = tot
            if not row:
                tab.pop(k, None)
        return MultiMap(self.source, self.target, self.arity, self.degree,
                        tab, check=False)

    def __neg__(self) -> "MultiMap":
        tab = {k: {b: -c for b, c in out.items()}
               for k, out in self.table.items()}
        return MultiMap(self.source, self.target, self.arity, self.degree,
                        tab, check=False)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self + (-other)

    def scale(self, c) -> "MultiMap":
        if not isinstance(c, Coefficient):
            c = Coefficient.rational(c)
        if c.is_zero():
            return MultiMap.zero(self.source, self.target, self.arity,
                                 self.degree)
        tab = {k: {b: w * c for b, w in out.items()}
               for k, out in self.table.items()}
        return MultiMap(self.source, self.target, self.arity, self.degree,
                        tab, check=False)

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return (self.source == other.source and self.target == other.target
                    and self.arity == other.arity)
        return (self.source == other.source and self.target == other.target
                and self.arity == other.arity and self.degree == other.degree
                and self.table == other.table)

    def __repr__(self):
        n = sum(len(v) for v in self.table.values())
        return (f"MultiMap(arity={self.arity}, degree={self.degree}, "
                f"{n} entries)")

    def evaluate(self, key: Sequence[int]) -> dict[int, Coefficient]:
        return self.table.get(tuple(key), {})


# ---------------------------------------------------------------------------
# Composition and braces: one kernel on raw Q[L] values
# ---------------------------------------------------------------------------

def _terms(c: Coefficient) -> tuple:
    return tuple(c.coeffs.items())


def _index_slot(h: MultiMap) -> tuple[dict, int]:
    """h by output basis element, b -> [(input block, its degree, raw
    coefficient)], and the parity of h's degree."""
    degs = h.source.degrees
    by_out: dict[int, list] = {}
    for key, out in h.table.items():
        d = sum(degs[i] for i in key)
        for b, c in out.items():
            by_out.setdefault(b, []).append((key, d, _terms(c)))
    return by_out, h.degree & 1


def _mul_terms(a: tuple, b: tuple) -> tuple:
    if len(a) == 1 == len(b):
        return ((a[0][0] + b[0][0], a[0][1] * b[0][1]),)
    out: dict = {}
    for ea, va in a:
        for eb, vb in b:
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    return tuple(out.items())


def _compose_sum(f0: MultiMap, arity: int, degree: int,
                 terms: Sequence[tuple]) -> MultiMap:
    """sum of sign * f o (slots) over (sign, f, slots) terms like f0's."""
    src, degs = f0.source, f0.source.degrees
    rows: dict[int, list] = {}
    index: dict[int, tuple] = {}
    acc: dict = {}    # input key -> output basis -> {power of L: rational}
    for sign, f, slots in terms:
        if id(f) not in rows:
            rows[id(f)] = [(key, [(b, _terms(c)) for b, c in out.items()],
                            [(b, _terms(-c)) for b, c in out.items()])
                           for key, out in f.table.items()]
        for h in slots:
            if h is not None and id(h) not in index:
                if h.target != src or h.source != src:
                    raise ValueError(
                        "slot maps must go from and to the input space")
                index[id(h)] = _index_slot(h)
        plan = [None if h is None else index[id(h)] for h in slots]
        for fkey, fpos, fneg in rows[id(f)]:
            # partial composites (input key, coefficient or None for 1,
            # degree of the blocks so far, Koszul exponent)
            partial = [((), None, 0, sign < 0)]
            for b, slot in zip(fkey, plan):
                if slot is None:
                    d = degs[b]
                    partial = [(k + (b,), c, pd + d, e)
                               for k, c, pd, e in partial]
                    continue
                opts = slot[0].get(b)
                if opts is None:
                    break
                odd = slot[1]
                partial = [(k + block, hc if c is None else _mul_terms(c, hc),
                            pd + d, e + pd * odd)
                           for k, c, pd, e in partial
                           for block, d, hc in opts]
            else:
                for key, c, _, e in partial:
                    c = c or ((0, 1),)
                    row = acc.get(key)
                    if row is None:
                        row = acc[key] = {}
                    for b, fc in (fneg if e & 1 else fpos):
                        cell = row.get(b)
                        if cell is None:
                            cell = row[b] = {}
                        for ef, vf in fc:
                            for ec, vc in c:
                                cell[ef + ec] = cell.get(ef + ec, 0) + vf * vc
    out = MultiMap.zero(src, f0.target, arity, degree)
    for key, row in acc.items():
        row = {b: c for b, c in ((b, Coefficient(cell))
                                 for b, cell in row.items()) if c}
        if row:
            out.table[key] = row
    return out


def compose_full(f: MultiMap, slots: Sequence[Optional[MultiMap]]
                 ) -> MultiMap:
    """f o (h_1 tensor ... tensor h_k), None meaning the identity slot.

    Koszul signs: each h_s passes the argument blocks of the slots to its
    left, contributing (-1)**(deg(h_s) * deg(those arguments)).
    """
    if len(slots) != f.arity:
        raise ValueError("need one slot entry per input of f")
    arity = sum(1 if h is None else h.arity for h in slots)
    degree = f.degree + sum(0 if h is None else h.degree for h in slots)
    return _compose_sum(f, arity, degree, [(1, f, slots)])


def compose_at(f: MultiMap, i: int, g: MultiMap) -> MultiMap:
    """f o_i g: insert g into the i-th input of f (1-based)."""
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range")
    slots: list[Optional[MultiMap]] = [None] * f.arity
    slots[i - 1] = g
    return compose_full(f, slots)


def brace_sum(terms: Sequence[tuple[int, MultiMap, Sequence[MultiMap]]]
              ) -> MultiMap:
    """sum of sign * f{g_1,...,g_k} over (sign, f, gs) terms of one arity
    and degree, every insertion position of every term in one pass."""
    _, f0, gs0 = terms[0]
    slot_terms = []
    for sign, f, gs in terms:
        for positions in itertools.combinations(range(f.arity), len(gs)):
            slots: list[Optional[MultiMap]] = [None] * f.arity
            for p, g in zip(positions, gs):
                slots[p] = g
            slot_terms.append((sign, f, slots))
    return _compose_sum(f0, f0.arity + sum(g.arity - 1 for g in gs0),
                        f0.degree + sum(g.degree for g in gs0), slot_terms)


def hom_brace(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """f{g_1,...,g_k}: sum over strictly increasing insertion slots, each
    g_j indexed once and all positions summed in one raw table."""
    return brace_sum([(1, f, gs)]) if gs else f


def hom_gerstenhaber(f: MultiMap, g: MultiMap) -> MultiMap:
    """[f,g] = f{g} - (-1)**(|f||g|) g{f} on maps with target = source."""
    return brace_sum([(1, f, [g]),
                      (1 if f.degree * g.degree % 2 else -1, g, [f])])


# ---------------------------------------------------------------------------
# Suspension translations
# ---------------------------------------------------------------------------

def _conjugation_sign(space: GradedSpace, key: Sequence[int]) -> int:
    """(-1)**(sum_j (n-j) p_j) on V-degrees p_j of the input tuple."""
    n = len(key)
    exp = sum((n - 1 - j) * space.degree_of(b) for j, b in enumerate(key))
    return -1 if exp % 2 else 1


def suspend_target(f: MultiMap) -> MultiMap:
    """Post-compose with s (flat basis unchanged, target degrees up by 1)."""
    return MultiMap(f.source, f.target.shift(1), f.arity, f.degree + 1,
                    f.table, check=False)


def desuspend_target(f: MultiMap) -> MultiMap:
    return MultiMap(f.source, f.target.shift(-1), f.arity, f.degree - 1,
                    f.table, check=False)


def _translate(f: MultiMap, shift_in: int, shift_out: int) -> MultiMap:
    """Conjugate by suspension on inputs (and optionally the target).

    shift_in = +1 turns V-inputs into sV-inputs, -1 the other way; the sign
    is always computed from the V-degrees.
    """
    src = f.source.shift(shift_in)
    tgt = f.target.shift(shift_out)
    plain = f.source if shift_in > 0 else src
    table: dict[tuple, dict[int, Coefficient]] = {}
    for key, out in f.table.items():
        sign = _conjugation_sign(plain, key)
        if sign == 1:
            table[key] = dict(out)
        else:
            table[key] = {b: -c for b, c in out.items()}
    degree = f.degree - shift_in * (f.arity) + shift_out
    return MultiMap(src, tgt, f.arity, degree, table, check=False)


def iso1_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, sV) -> Hom(V^n, V)."""
    return _translate(f, -1, -1)


def iso1_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, sV); inverse of iso1_down."""
    return _translate(f, +1, +1)


def iso2_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, V) -> Hom(V^n, V)."""
    return _translate(f, -1, 0)


def iso2_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, V); inverse of iso2_down."""
    return _translate(f, +1, 0)
