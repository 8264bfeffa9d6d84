"""The four benchmark workloads, the timed call into each, and the output
gate that compares each run with `expected.json`.

A workload has three steps. `setup` builds the inputs from the seed and is
counted in setup_s. `run` is the timed call: verdict_s and cpu_s cover it
and nothing else. `check` derives the item count, the failing items and
the canonical outputs from what `run` returned and from the
objects it filled. `check` and the gate run after the timer stops.

Calls into traced functions go through the module attribute
(``linf.jacobi_residual``), so the wrappers that `tracer.Tracer` installs
see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from operad_forge import compare, linf
from operad_forge.algebras import DifAlgebraData
from operad_forge.cochain import CochainComplexes, rank_dense_oracle
from operad_forge.coeffs import LAMBDA
from operad_forge.contraction import Contraction
from operad_forge.dif_operads import Difinfty, alphabet, enumerate_monomials
from operad_forge.formats import element_records, format_tree
from operad_forge.hom_complex import GradedSpace
from operad_forge.koszul_dual import cross_check_cobar, sdif_cobar_d_square

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# "full" is what the benchmark times; "tiny" is the seconds-long size the
# benchmark's own tests run.
SIZES = {
    "contract": {
        "full": {"max_arity": 5, "max_degree": 3, "max_weight": 3},
        "tiny": {"max_arity": 5, "max_degree": 3, "max_weight": 2},
    },
    "resolution": {"full": {"max_arity": 6}, "tiny": {"max_arity": 4}},
    "deformation": {
        "full": {"max_width": 5, "tuples": 8},
        "tiny": {"max_width": 3, "tuples": 2},
    },
    "cochain": {
        "full": {"level": 4, "twist_level": 3, "bracket_arity": 3},
        "tiny": {"level": 2, "twist_level": 2, "bracket_arity": 2},
    },
}

# Fixed, so the sampled H values do not depend on the benchmark's seed.
H_SAMPLE_SEED = 2302
H_SAMPLE_SIZE = 64

DEFORMATION_SPACES = ({0: 1}, {0: 2}, {0: 1, 1: 1})
DEFORMATION_MAX_ARITY = 3

# The dim-2 idempotent algebra with d = -id at weight 1.
COCHAIN_ALGEBRA = ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                   [[-1, 0], [0, -1]], 1)


@dataclass
class Outcome:
    """What `check` reads off a finished run."""

    items: int
    failed_items: int
    canonical: object
    failures: list[str] = field(default_factory=list)


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- contract ---------------------------------------------------------------

class ContractWorkload:
    """Contraction.verify: diff H + H diff = id on every monomial."""

    @staticmethod
    def setup(seed, max_arity, max_degree, max_weight):
        return {"contraction": Contraction(Difinfty()),
                "bounds": (max_arity, max_degree, max_weight)}

    @staticmethod
    def run(state):
        return state["contraction"].verify(*state["bounds"])

    @staticmethod
    def check(state, raw) -> Outcome:
        checked, violations = raw
        max_arity, max_degree, max_weight = state["bounds"]
        monomials = enumerate_monomials(max_arity, max_weight, min_degree=1,
                                        max_degree=max_degree)
        rng = random.Random(H_SAMPLE_SEED)
        sample = rng.sample(monomials, min(H_SAMPLE_SIZE, len(monomials)))
        contraction = state["contraction"]
        canonical = [[format_tree(t.node),
                      element_records(contraction.h_monomial(t))]
                     for t in sample]
        return Outcome(checked, len(violations), canonical,
                       [f"nonzero residual on {t!r}" for t, _ in violations])

    @staticmethod
    def cache_sizes(state) -> dict:
        c = state["contraction"]
        return {f"contraction.{key}_entries": len(getattr(c, f"_{key}", ()))
                for key in ("h", "tbar", "eff")}


# -- resolution -------------------------------------------------------------

class ResolutionWorkload:
    """diff^2 = 0, the cobar cross-check and the cobar diff^2 = 0."""

    @staticmethod
    def setup(seed, max_arity):
        return {"op": Difinfty(), "max_arity": max_arity}

    @staticmethod
    def run(state):
        n = state["max_arity"]
        return (state["op"].check_d_square(n), cross_check_cobar(n),
                sdif_cobar_d_square(n))

    @staticmethod
    def check(state, raw) -> Outcome:
        gens = alphabet(state["max_arity"])
        bad = [symbol for part in raw for symbol, _residual in part]
        op = state["op"]
        canonical = [[g.symbol, element_records(op.diff(g))] for g in gens]
        return Outcome(3 * len(gens), len(bad), canonical,
                       [f"nonzero residual on {s}" for s in bad])


# -- deformation ------------------------------------------------------------

def arity_profiles(width: int, max_arity: int) -> list[tuple[int, ...]]:
    """Arity tuples whose sum is the mean of uniformly drawn arities.

    The cost of a Jacobi tuple grows about geometrically with the sum of
    its arities, so drawing the arities at random made the seed change the
    load by up to 3x. Cycling through these profiles fixes the load; the
    seed still draws every coefficient table.
    """
    target = width * (1 + max_arity) // 2
    return [p for p in itertools.product(range(1, max_arity + 1),
                                         repeat=width) if sum(p) == target]


def jacobi_component(rng, space, flag, arity, degree_index):
    """A single-component element of the given arity, as
    `linf.random_component` draws it, with a full coefficient table."""
    s_space = space.shift(1)
    target = s_space if flag == linf.ALG else space
    degrees = sorted({target.degree_of(b) - sum(key)
                      for key in itertools.product(s_space.degrees,
                                                   repeat=arity)
                      for b in target.basis()})
    mm = linf.random_multimap(rng, s_space, target, arity,
                              degrees[degree_index % len(degrees)],
                              density=1.0)
    return linf.CdaElement(space, {(arity, flag): mm})


class DeformationWorkload:
    """The generalized Jacobi identity of the deformation L-infinity
    algebra on seeded tuples, at generic weight."""

    @staticmethod
    def setup(seed, max_width, tuples):
        cases = []
        for space_index, dims in enumerate(DEFORMATION_SPACES):
            space = GradedSpace(dims)
            for width in range(1, max_width + 1):
                rng = random.Random(f"{seed}/{space_index}/{width}")
                patterns = linf.JACOBI_PATTERNS[width]
                profiles = arity_profiles(width, DEFORMATION_MAX_ARITY)
                for k in range(tuples):
                    flags = patterns[k % len(patterns)]
                    arities = profiles[k % len(profiles)]
                    args = [jacobi_component(rng, space, f, a, k + i)
                            for i, (f, a) in enumerate(zip(flags, arities))]
                    cases.append((f"{dims}/{width}", space, args))
        return {"cases": cases}

    @staticmethod
    def run(state):
        return [label for label, space, args in state["cases"]
                if not linf.jacobi_residual(space, LAMBDA, args).is_zero()]

    @staticmethod
    def check(state, raw) -> Outcome:
        per_config: dict[str, int] = {}
        for label, _space, _args in state["cases"]:
            per_config[label] = per_config.get(label, 0) + 1
        return Outcome(len(state["cases"]), len(raw), per_config,
                       [f"nonzero Jacobi residual in {label}"
                        for label in raw])


# -- cochain ----------------------------------------------------------------

def cochain_algebra() -> DifAlgebraData:
    mult, d, lam = COCHAIN_ALGEBRA
    return DifAlgebraData.build(mult, d, lam)


def basis_cochains(alg: DifAlgebraData, level: int) -> int:
    cx = CochainComplexes(alg)
    return sum(cx.da_dim(n) for n in range(level + 1))


class CochainWorkload:
    """Total cohomology dims and the twisted-bracket comparisons."""

    @staticmethod
    def setup(seed, level, twist_level, bracket_arity):
        return {"alg": cochain_algebra(), "seed": seed, "level": level,
                "twist_level": twist_level, "bracket_arity": bracket_arity}

    @staticmethod
    def run(state):
        alg = state["alg"]
        dims = CochainComplexes(alg).cohomology_ranks(state["level"])
        return (dims,
                compare.da_twist_mismatches(alg, state["twist_level"]),
                compare.do_twist_mismatches(alg, state["twist_level"]),
                compare.do_bracket_mismatches(
                    alg, state["bracket_arity"], corrected=True,
                    rng=random.Random(state["seed"])))

    @staticmethod
    def check(state, raw) -> Outcome:
        dims, *mismatch_lists = raw
        bad = [m for part in mismatch_lists for m in part]
        items = basis_cochains(state["alg"], state["level"])
        return Outcome(items, len(bad), dims, bad)

    @staticmethod
    def oracle_dims(level: int) -> list[int]:
        """The cohomology dims by the dense oracle, for `record.py`."""
        return CochainComplexes(cochain_algebra()).cohomology_ranks(
            level, rank_fn=rank_dense_oracle)


WORKLOADS = {
    "contract": ContractWorkload,
    "resolution": ResolutionWorkload,
    "deformation": DeformationWorkload,
    "cochain": CochainWorkload,
}

# Checks that the gate adds to each run: the item count and the digest.
GATE_CHECKS = 2


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def gate(outcome: Outcome, expected: dict) -> list[str]:
    """Failures of the item count and of the canonical-output digest."""
    failures = []
    if outcome.items != expected["items"]:
        failures.append(f"{outcome.items} items checked, expected "
                        f"{expected['items']}")
    if digest(outcome.canonical) != expected["sha256"]:
        failures.append("canonical output digest differs from expected")
    return failures


def execute(name: str, seed: int, size: str = "full", tracer=None,
            spawned_at: float | None = None, expected: dict | None = None
            ) -> dict:
    """Set up, time and check one run of a workload in this process.

    `spawned_at` is the CLOCK_MONOTONIC time at which the parent started
    this process; setup_s runs from it to the first workload call.
    """
    workload = WORKLOADS[name]
    if expected is None:
        expected = load_expected()[name][size]
    result = {"workload": name, "seed": seed, "size": size}
    try:
        state = workload.setup(seed, **SIZES[name][size])
        if tracer is not None:
            tracer.install()
        first_call = time.monotonic()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            raw = workload.run(state)
        finally:
            verdict_s = time.perf_counter() - wall0
            cpu_s = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        result.update(
            setup_s=(first_call - spawned_at if spawned_at is not None
                     else None),
            verdict_s=verdict_s, cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        outcome = workload.check(state, raw)
    except Exception:   # a crash fails every check; keep its traceback
        attempted = expected["items"] + GATE_CHECKS
        result.update(items=expected["items"], attempted=attempted,
                      failed=attempted, failures=[traceback.format_exc()])
        return result
    gate_failures = gate(outcome, expected)
    result.update(items=outcome.items,
                  attempted=outcome.items + GATE_CHECKS,
                  failed=outcome.failed_items + len(gate_failures),
                  failures=(outcome.failures + gate_failures)[:10])
    if tracer is not None:
        layers = tracer.layer_metrics(result["verdict_s"])
        cache_sizes = getattr(workload, "cache_sizes", None)
        layers.update(cache_sizes(state) if cache_sizes else {})
        result["layers"] = layers
        result["spans"] = len(tracer.starts)
    return result
