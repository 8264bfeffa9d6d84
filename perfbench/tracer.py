"""Spans around the calls into each layer of operad_forge, recorded from the
benchmark's own files.

`Tracer.install` wraps every function in `LAYER_FUNCTIONS`. A module
function is rebound in its own module and in every other module that holds
a copy of it (made by ``from ... import``), so a call through any name is
seen. A method is rewrapped on its class under every attribute that holds
it (``__rmul__ = __mul__`` counts as ``mul``). Each call becomes one span:
name, start, end and parent span. The spans stay in memory as flat arrays
until the run ends, then `write_spans` stores them and `layer_metrics`
turns them into per-function call counts and self times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (metric prefix, module, attribute path, report calls?)
LAYER_FUNCTIONS = [
    ("coeffs.Coefficient.mul", "coeffs", "Coefficient.__mul__", True),
    ("coeffs.Coefficient.add", "coeffs", "Coefficient.__add__", True),
    ("coeffs.koszul_sign", "coeffs", "koszul_sign", True),
    ("trees.vertex_paths", "trees", "vertex_paths", True),
    ("trees.monomial_order_key", "trees", "monomial_order_key", True),
    ("trees.graft", "trees", "graft", True),
    ("free_operad.TreeMonomial.init", "free_operad", "TreeMonomial.__init__",
     True),
    ("free_operad.replace_region", "free_operad", "replace_region", True),
    ("free_operad.compose_monomials", "free_operad", "compose_monomials",
     True),
    ("free_operad.extend_derivation", "free_operad", "extend_derivation",
     True),
    ("free_operad.OperadElement.add", "free_operad", "OperadElement.__add__",
     True),
    ("dif_operads.Difinfty.diff", "dif_operads", "Difinfty.diff", True),
    ("dif_operads.Difinfty.diff_element", "dif_operads",
     "Difinfty.diff_element", True),
    ("dif_operads.enumerate_monomials", "dif_operads", "enumerate_monomials",
     True),
    ("koszul_dual.delta_table", "koszul_dual", "delta_table", True),
    ("koszul_dual.cobar_differential", "koszul_dual", "cobar_differential",
     True),
    ("contraction.check_identity", "contraction", "Contraction.check_identity",
     True),
    ("contraction.h_monomial", "contraction", "Contraction.h_monomial", True),
    ("contraction.analyze_effective", "contraction",
     "Contraction.analyze_effective", True),
    ("hom_complex.compose_full", "hom_complex", "compose_full", True),
    ("hom_complex.hom_brace", "hom_complex", "hom_brace", True),
    ("hom_complex.MultiMap.add", "hom_complex", "MultiMap.__add__", True),
    ("linf.cda_bracket", "linf", "cda_bracket", True),
    ("linf.jacobi_residual", "linf", "jacobi_residual", True),
    ("linf.twisted_bracket", "linf", "twisted_bracket", True),
    ("cochain.CochainComplexes.phi", "cochain", "CochainComplexes.phi", True),
    ("cochain.CochainComplexes.da_diff", "cochain", "CochainComplexes.da_diff",
     True),
    ("cochain.rank_fraction_free", "cochain", "rank_fraction_free", True),
    ("algebras.add_vec", "algebras", "add_vec", True),
    ("algebras.scale_vec", "algebras", "scale_vec", True),
    ("compare.da_twist_mismatches", "compare", "da_twist_mismatches", False),
    ("compare.do_twist_mismatches", "compare", "do_twist_mismatches", False),
]

# Memo hit tests, evaluated on a call's arguments before the call runs: a hit
# is a call the wrapped function answers from its own cache. A memo that is
# not where the probe looks counts as a miss, so a rewrite of the caches
# lowers the ratio instead of breaking the run.
HIT_PROBES = {
    "dif_operads.Difinfty.diff":
        lambda op, gen: gen in getattr(op, "_diff_cache", ()),
    "contraction.h_monomial":
        lambda c, t: getattr(t, "node", t) in getattr(c, "_h", ()),
}

# Sizes of the contraction caches at the verdict (read by the workload).
CACHE_METRICS = ("contraction.h_entries", "contraction.tbar_entries",
                 "contraction.eff_entries")

OVERHEAD_METRIC = "trace.overhead_ratio"


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics of BENCHMARK.json with their units.

    Self time enters as `self_share`, its share of the traced run's
    verdict_s. Swings in the host's speed cancel out of that ratio, and a
    function a workload never calls reads 0 of something, not 0 s. The
    seconds (`self_s`) are in the printed table and the result file.
    """
    units = {}
    for name, _module, _attr, with_calls in LAYER_FUNCTIONS:
        if with_calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "ratio"
        if name in HIT_PROBES:
            units[f"{name}.hit_ratio"] = "ratio"
    for name in CACHE_METRICS:
        units[name] = "count"
    units[OVERHEAD_METRIC] = "ratio"
    return units


def unit_of(name: str) -> str:
    """Unit of any metric the traced run prints."""
    if name.endswith((".calls", "_entries")):
        return "count"
    return "s" if name.endswith(".self_s") else "ratio"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.hits: list[int] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hit=None):
        nid = len(self.names)
        self.names.append(name)
        self.hits.append(0)
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        stack, hits, clock = self._stack, self.hits, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hit is not None and hit(*args):
                hits[nid] += 1
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS in the imported package.

        A function the program no longer has is skipped; it reads 0 calls.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.startswith("operad_forge.")]
        for name, module, attr, _with_calls in LAYER_FUNCTIONS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = sys.modules.get(f"operad_forge.{module}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(fn_name) if owner else None
            if original is None:
                continue
            wrapped = self._wrap(name, original, HIT_PROBES.get(name))
            for holder in ([owner] if owner_name else modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the raw name, start, end and parent
        columns in that order (machine byte order, see the header)."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "columns": [["name", "H"], ["start_ns", "q"], ["end_ns", "q"],
                        ["parent", "i"]],
            "byteorder": sys.byteorder,
            "parent_root": -1,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.starts, self.ends,
                           self.parents):
                column.tofile(fh)

    def layer_metrics(self, verdict_s: float) -> dict[str, float]:
        """calls, self_s, self_share and hit_ratio per wrapped function.

        Self time is a span's duration minus the time its direct child
        spans cover; self_share divides it by the run's verdict_s.
        """
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            out[f"{name}.self_share"] = self_ns[nid] / 1e9 / verdict_s
            if name in HIT_PROBES:
                out[f"{name}.hit_ratio"] = (self.hits[nid] / calls[nid]
                                            if calls[nid] else 0.0)
        return out


def read_spans(path: Path) -> tuple[dict, list[array]]:
    """Inverse of `Tracer.write_spans`: the header and the four columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _name, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns.append(column)
    return header, columns
