"""Byte-for-byte regression of recorded outputs.

`test_reports_byte_identical` in test_cli.py compares two runs in one
process; these files pin the bytes across versions of the code.  The input
elements live next to the reports and are passed by bare file name from
that directory, so the `in` parameter echoed in a report does not depend on
where the suite runs.

`brackets.json` pins the exact values of the hom-complex layer: seeded
`compose_full` calls (identity slots and odd-degree slot maps), `hom_brace`
with one to three maps, `hom_gerstenhaber`, and `cda_bracket` l_2, l_3, l_4
plus nested brackets at generic weight, each as sorted
(input key, output basis, coefficient) triples.

The `cohomology_*` reports pin the total-complex cohomology: the algebra
TWO_DIM of test_cochain.py (with coefficients in itself and in the
bimodule A + A) and the dual numbers k[x]/(x^2) with d(x) = x at weight 1,
whose ranks [1, 2, 1, 0, 0] are not all zero.

`contract_verify_4_2_3` pins the exhaustive contraction check (232
monomials) as recorded before the H recursion moved to per-call frames.

`cli_reports.json` pins the `--out` report of every subcommand's
`--selftest` run (the `SELFTESTS` of test_cli.py), of `koszul delta --list`
and of a two-process `linfty jacobi`, keyed by argv.  Each report is stored
parsed; the written file must equal it dumped as `Report.to_json` dumps
(indent 1, sorted keys), byte for byte.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest

from operad_forge.cli import main
from operad_forge.coeffs import LAMBDA, Coefficient, format_coefficient
from operad_forge.hom_complex import (
    GradedSpace,
    compose_full,
    hom_brace,
    hom_gerstenhaber,
)
from operad_forge.linf import cda_bracket, random_multimap
from test_cli import SELFTESTS
from test_linf import alg_part, do_part

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "difinfty_diff_d5": ["difinfty", "diff", "--gen", "d5"],
    "contract_apply": ["contract", "apply", "--in", "contract_apply_in.json"],
    "dif_normalize": ["dif", "normalize", "--in", "dif_normalize_in.json"],
    "koszul_crosscheck_6": ["koszul", "crosscheck", "--max-arity", "6"],
    "contract_verify_4_2_3": ["contract", "verify", "--max-arity", "4",
                              "--max-degree", "2", "--max-weight", "3"],
    "cohomology_two_dim_4": ["cohomology", "compute", "--algebra",
                             "cohomology_two_dim.json", "--max-level", "4"],
    "cohomology_double_bimodule_4": [
        "cohomology", "compute", "--algebra", "cohomology_two_dim.json",
        "--bimodule", "cohomology_double_bimodule.json", "--max-level", "4"],
    "cohomology_dual_numbers_4": [
        "cohomology", "compute", "--algebra", "cohomology_dual_numbers.json",
        "--max-level", "4"],
    "compare_twist_two_dim_3": ["cohomology", "compare-twist", "--algebra",
                                "cohomology_two_dim.json", "--max-level", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


CLI_REPORT_ARGVS = [argv + ["--selftest"] for argv in SELFTESTS] + [
    ["koszul", "delta", "--gen", "sd2", "--list"],
    ["linfty", "jacobi", "--dim", "1", "--maxn", "2", "--trials", "2",
     "--seed", "5", "--jobs", "2"],
]


def _cli_report(argv, out: Path) -> str:
    if main(argv + ["--out", str(out)]) != 0:
        raise AssertionError(f"{' '.join(argv)}: command failed")
    return out.read_text()


@pytest.mark.parametrize("argv", CLI_REPORT_ARGVS, ids=" ".join)
def test_cli_report_matches_golden(argv, tmp_path):
    golden = json.loads((GOLDEN_DIR / "cli_reports.json").read_text())
    expected = json.dumps(golden[" ".join(argv)], indent=1, sort_keys=True)
    assert _cli_report(argv, tmp_path / "report.json") == expected


def cli_reports() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        reports = {" ".join(argv): json.loads(
            _cli_report(argv, Path(tmp) / "report.json"))
            for argv in CLI_REPORT_ARGVS}
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def _triples(mm):
    return sorted([list(key), b, format_coefficient(c)]
                  for key in mm.table for b, c in mm.evaluate(key).items())


def _element_cases(name, x):
    return {f"{name} {flag}{n}": _triples(mm)
            for (n, flag), mm in sorted(x.parts.items())}


def _mixed(rng, source, target, arity, degree):
    """A random map whose coefficients mix L^0, L^1 and L^2 terms."""
    out = random_multimap(rng, source, target, arity, degree)
    for power in (1, 2):
        out = out + random_multimap(rng, source, target, arity, degree,
                                    density=0.5).scale(Coefficient.lam(power))
    return out


def bracket_cases() -> dict:
    """Seeded hom-layer computations, as sorted value triples per case."""
    cases = {}
    sv = GradedSpace({0: 2, 1: 1})
    rng = random.Random(2024)
    f3 = _mixed(rng, sv, sv, 3, -1)
    g_odd = _mixed(rng, sv, sv, 2, -1)
    h_odd = _mixed(rng, sv, sv, 1, -1)
    h_even = _mixed(rng, sv, sv, 2, 0)
    cases["compose_full f3[g_odd, -, h_odd]"] = _triples(
        compose_full(f3, [g_odd, None, h_odd]))
    cases["compose_full f3[h_even, g_odd, h_odd]"] = _triples(
        compose_full(f3, [h_even, g_odd, h_odd]))
    cases["compose_full f3[-, -, -]"] = _triples(
        compose_full(f3, [None, None, None]))
    cases["compose_full f3[-, h_odd, -]"] = _triples(
        compose_full(f3, [None, h_odd, None]))
    cases["hom_brace f3{g_odd}"] = _triples(hom_brace(f3, [g_odd]))
    cases["hom_brace f3{g_odd, h_odd}"] = _triples(
        hom_brace(f3, [g_odd, h_odd]))
    cases["hom_brace f3{h_odd, h_even, g_odd}"] = _triples(
        hom_brace(f3, [h_odd, h_even, g_odd]))
    cases["hom_gerstenhaber [f3, g_odd]"] = _triples(
        hom_gerstenhaber(f3, g_odd))
    cases["hom_gerstenhaber [g_odd, h_even]"] = _triples(
        hom_gerstenhaber(g_odd, h_even))

    for label, space in (("dim 2", GradedSpace({0: 2})),
                         ("two degrees", GradedSpace({0: 1, 1: 1}))):
        s_space = space.shift(1)
        rng = random.Random(f"brackets/{label}")
        sf = alg_part(space, random_multimap(
            rng, s_space, s_space, 2, -1))
        sf2 = alg_part(space, random_multimap(
            rng, s_space, s_space, 1, 0))
        sf3 = alg_part(space, random_multimap(
            rng, s_space, s_space, 3, -2))
        g1 = do_part(space, _mixed(rng, s_space, space, 1, -1))
        g2 = do_part(space, random_multimap(
            rng, s_space, space, 2, -2))
        g3 = do_part(space, random_multimap(
            rng, s_space, space, 1, -1))
        l2 = cda_bracket(space, LAMBDA, [sf, g1])
        l3 = cda_bracket(space, LAMBDA, [sf, g1, g2])
        l4 = cda_bracket(space, LAMBDA, [g3, sf3, g1, g2])
        nested = cda_bracket(space, LAMBDA, [l3, sf2])
        nested3 = cda_bracket(space, LAMBDA, [sf, l3, g1])
        for name, x in (("l2(sf, g1)", l2), ("l3(sf, g1, g2)", l3),
                        ("l4(g3, sf3, g1, g2)", l4),
                        ("l2(l3(sf, g1, g2), sf2)", nested),
                        ("l3(sf, l3(sf, g1, g2), g1)", nested3),
                        ("l2(sf, sf2)", cda_bracket(space, LAMBDA,
                                                    [sf, sf2]))):
            cases.update(_element_cases(f"{label}: {name}", x))
    return cases


def bracket_report() -> str:
    return json.dumps(bracket_cases(), indent=1, sort_keys=True) + "\n"


def test_brackets_match_golden():
    assert bracket_report().encode() == \
        (GOLDEN_DIR / "brackets.json").read_bytes()


def record() -> None:
    import os

    os.chdir(GOLDEN_DIR)
    for name, argv in CASES.items():
        if main(argv + ["--out", f"{name}.json"]) != 0:
            raise SystemExit(f"{name}: command failed")
    Path("brackets.json").write_text(bracket_report())
    Path("cli_reports.json").write_text(cli_reports())


if __name__ == "__main__":
    record()
