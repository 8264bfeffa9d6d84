"""Finite-dimensional graded spaces, multilinear maps between their tensor
powers, suspension translations and the brace calculus on suspended maps.

Suspension convention: s is a degree +1 symbol, moving s or s^-1 past a
degree-p element costs (-1)**p, and s^-1 s = s s^-1 = id with no sign.  The
two translations

    iso1:  Hom((sV)^n, sV) -> Hom(V^n, V)     F |-> s^-1 o F o s^n
    iso2:  Hom((sV)^n, V)  -> Hom(V^n, V)     G |->        G o s^n

then carry the sign (-1)**(sum_j (n-j) p_j) on inputs of V-degrees
p_1..p_n, and similarly for their inverses.

Composition and braces run on one kernel, `compose_sum`, a sum of terms
c * f o (h_1, ..., h_k) whose scalars c are in Q[L] (a sign, a power of L
or any other polynomial).  It folds each c into f's rows once per (f, c)
and indexes each slot map by output basis element once per call, with
each entry's block degree, then adds the products of every insertion
position of every term into one table of raw Q[L] values; each output
entry becomes a Coefficient once, at the end.  The Koszul sign is summed
as an exponent while a composite grows slot by slot and is applied once,
by taking f's scaled row or its negative.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .coeffs import Coefficient, add_into, as_coefficient, unit_sign

_new = object.__new__


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
    stored as a sparse table on basis tuples (flat indices).

    A table is never changed after construction, so maps share tables and
    rows freely."""

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
                add_into(tab, tuple(key), dict(out))
        self.table = tab
        if check:
            self._check()

    def _with(self, table: dict, target: Optional[GradedSpace] = None,
              degree: Optional[int] = None) -> "MultiMap":
        """A map like this one on ``table``, which must hold no zeros and
        no empty rows; the table is taken as is, not copied or checked."""
        out = _new(MultiMap)
        out.source, out.arity, out.table = self.source, self.arity, table
        out.target = self.target if target is None else target
        out.degree = self.degree if degree is None else degree
        return out

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

    def __bool__(self) -> bool:
        return bool(self.table)

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
        tab: dict[tuple, dict[int, Coefficient]] = {}
        for table in (self.table, other.table):
            for key, row in table.items():
                add_into(tab, key, row)
        return self._with(tab)

    def __neg__(self) -> "MultiMap":
        return self._with({k: {b: -c for b, c in out.items()}
                           for k, out in self.table.items()})

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self + (-other)

    def scale(self, c) -> "MultiMap":
        unit = unit_sign(c)
        if unit == 1:
            return self
        if unit == -1:
            return -self
        c = as_coefficient(c)
        if c.is_zero():
            return self._with({})
        return self._with({k: {b: w * c for b, w in out.items()}
                           for k, out in self.table.items()})

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


def sum_maps(pairs: Iterable[tuple]) -> dict:
    """Keywise sum of c * family over (c, family) pairs, each family a dict
    of MultiMaps, in one pass over the pairs.  A key with one map keeps
    that map; from a key's second map on, its rows are added into one fresh
    table.  Keys whose sum is zero are dropped."""
    out: dict = {}
    merged: set = set()
    tables: dict = {}
    for c, family in pairs:
        for key, mm in family.items():
            if not mm.table:
                continue
            mm = mm.scale(c)
            first = out.get(key)
            if first is None:
                out[key] = mm
                continue
            first._compatible(mm)
            if key not in merged:
                merged.add(key)
                add_into(tables, key, first.table)
            add_into(tables, key, mm.table)
    for key in merged:
        if key in tables:
            out[key] = out[key]._with(tables[key])
        else:
            del out[key]
    return out


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


def compose_sum(source: GradedSpace, target: GradedSpace, arity: int,
                degree: int, terms: Iterable[tuple]) -> MultiMap:
    """sum of c * f o (slots) over (c, f, slots) terms, c a Coefficient or
    a rational; every f goes from ``source`` to ``target`` and every term
    has the given arity and degree.

    Each c is folded into f's rows once per (f, c), so the product loop
    does the same work for any scalar.
    """
    degs = source.degrees
    rows: dict[tuple, list] = {}
    index: dict[int, tuple] = {}
    acc: dict = {}    # input key -> output basis -> {power of L: rational}
    # a list keeps every map alive for the whole call: the caches are keyed
    # by id()
    for c, f, slots in list(terms):
        if (len(slots) != f.arity
                or sum(1 if h is None else h.arity for h in slots) != arity
                or f.degree + sum(h.degree for h in slots if h is not None)
                != degree):
            raise ValueError("terms of mixed arity or degree")
        unit = unit_sign(c)
        c = as_coefficient(c)
        if not c:
            continue
        fold = (id(f), unit or c)
        if fold not in rows:
            if f.source != source or f.target != target:
                raise ValueError("f must go from the source to the target")
            rows[fold] = [(key, [(b, _terms(v)) for b, v in out.items()],
                           [(b, _terms(-v)) for b, v in out.items()])
                          for key, out in f.scale(c).table.items()]
        for h in slots:
            if h is not None and id(h) not in index:
                if h.target != source or h.source != source:
                    raise ValueError(
                        "slot maps must go from and to the input space")
                index[id(h)] = _index_slot(h)
        plan = [None if h is None else index[id(h)] for h in slots]
        for fkey, fpos, fneg in rows[fold]:
            # partial composites (input key, coefficient or None for 1,
            # degree of the blocks so far, Koszul exponent)
            partial = [((), None, 0, 0)]
            for b, slot in zip(fkey, plan):
                if slot is None:
                    d = degs[b]
                    partial = [(k + (b,), pc, pd + d, e)
                               for k, pc, pd, e in partial]
                    continue
                opts = slot[0].get(b)
                if opts is None:
                    break
                odd = slot[1]
                partial = [(k + block, hc if pc is None else _mul_terms(pc, hc),
                            pd + d, e + pd * odd)
                           for k, pc, pd, e in partial
                           for block, d, hc in opts]
            else:
                for key, pc, _, e in partial:
                    pc = pc or ((0, 1),)
                    row = acc.get(key)
                    if row is None:
                        row = acc[key] = {}
                    for b, fc in (fneg if e & 1 else fpos):
                        cell = row.get(b)
                        if cell is None:
                            cell = row[b] = {}
                        for ef, vf in fc:
                            for ec, vc in pc:
                                cell[ef + ec] = cell.get(ef + ec, 0) + vf * vc
    table: dict[tuple, dict[int, Coefficient]] = {}
    for key, row in acc.items():
        add_into(table, key, {b: Coefficient(cell) for b, cell in row.items()})
    return MultiMap.zero(source, target, arity, degree)._with(table)


def compose_full(f: MultiMap, slots: Sequence[Optional[MultiMap]]
                 ) -> MultiMap:
    """f o (h_1 tensor ... tensor h_k), None meaning the identity slot.

    Koszul signs: each h_s passes the argument blocks of the slots to its
    left, contributing (-1)**(deg(h_s) * deg(those arguments)).
    """
    arity = sum(1 if h is None else h.arity for h in slots)
    degree = f.degree + sum(0 if h is None else h.degree for h in slots)
    return compose_sum(f.source, f.target, arity, degree, [(1, f, slots)])


def compose_at(f: MultiMap, i: int, g: MultiMap) -> MultiMap:
    """f o_i g: insert g into the i-th input of f (1-based)."""
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range")
    slots: list[Optional[MultiMap]] = [None] * f.arity
    slots[i - 1] = g
    return compose_full(f, slots)


def brace_terms(c, f: MultiMap, gs: Sequence[MultiMap]):
    """The (c, f, slots) terms of c * f{g_1,...,g_k}: one per strictly
    increasing choice of insertion slots."""
    for positions in itertools.combinations(range(f.arity), len(gs)):
        slots: list[Optional[MultiMap]] = [None] * f.arity
        for p, g in zip(positions, gs):
            slots[p] = g
        yield c, f, slots


def brace_sum(terms: Sequence[tuple]) -> MultiMap:
    """sum of c * f{g_1,...,g_k} over nonempty (c, f, gs) terms of one
    arity and degree, every insertion position of every term in one pass."""
    _, f0, gs0 = terms[0]
    return compose_sum(f0.source, f0.target,
                       f0.arity + sum(g.arity - 1 for g in gs0),
                       f0.degree + sum(g.degree for g in gs0),
                       [t for term in terms for t in brace_terms(*term)])


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
    """Post-compose with s (flat basis unchanged, target degrees up by 1).
    Only degrees are relabelled, so the table is shared."""
    return f._with(f.table, f.target.shift(1), f.degree + 1)


def desuspend_target(f: MultiMap) -> MultiMap:
    return f._with(f.table, f.target.shift(-1), f.degree - 1)


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
            table[key] = out
        else:
            table[key] = {b: -c for b, c in out.items()}
    degree = f.degree - shift_in * (f.arity) + shift_out
    return MultiMap.zero(src, tgt, f.arity, degree)._with(table)


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
