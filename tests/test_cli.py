import argparse
import json

import pytest

from operad_forge.algebras import DifAlgebraData, dump_algebra
from operad_forge.cli import build_parser, main


@pytest.fixture()
def good_algebra(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(dump_algebra(DifAlgebraData.build([[[1]]], [[-1]], 1)))
    return str(path)


@pytest.fixture()
def bad_algebra(tmp_path):
    alg = DifAlgebraData.build(
        [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [[0, 0], [0, 0]], 1)
    path = tmp_path / "bad.json"
    path.write_text(dump_algebra(alg))
    return str(path)


def test_d2check_passes():
    assert main(["difinfty", "d2check", "--max-arity", "4"]) == 0


def test_crosscheck_passes():
    assert main(["koszul", "crosscheck", "--max-arity", "4"]) == 0


def test_contract_verify_small():
    assert main(["contract", "verify", "--max-arity", "3", "--max-degree",
                 "1", "--max-weight", "3"]) == 0


def test_contract_verify_parallel(tmp_path):
    argv = ["contract", "verify", "--max-arity", "4", "--max-degree", "1",
            "--max-weight", "3"]
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"].pop("jobs") == int(jobs)
        reports.append(report)
    assert reports[0] == reports[1]


def test_linfty_jacobi():
    assert main(["linfty", "jacobi", "--dim", "1", "--maxn", "3",
                 "--trials", "4", "--seed", "3"]) == 0


def test_mc_check_good(good_algebra):
    assert main(["mc", "check", "--algebra", good_algebra]) == 0


def test_mc_check_bad_exits_one(bad_algebra):
    assert main(["mc", "check", "--algebra", bad_algebra]) == 1


def test_mc_twist_compare(good_algebra):
    assert main(["mc", "twist-compare", "--algebra", good_algebra,
                 "--max-arity", "2"]) == 0


def test_cohomology_compute(tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(dump_algebra(DifAlgebraData.build([[[0]]], [[0]], 0)))
    out = tmp_path / "report.json"
    assert main(["cohomology", "compute", "--algebra", str(path),
                 "--max-level", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert "H^3: dim 2" in report["output"]


def test_cohomology_compare_twist(good_algebra):
    assert main(["cohomology", "compare-twist", "--algebra", good_algebra,
                 "--max-level", "2"]) == 0


def test_hda_check(tmp_path):
    from operad_forge.coeffs import Coefficient
    from operad_forge.hda import dump_structure, embed_algebra

    s = embed_algebra([[[1]]], [[-1]], Coefficient.rational(1))
    path = tmp_path / "structure.json"
    path.write_text(dump_structure(s))
    assert main(["hda", "check", "--structure", str(path),
                 "--max-arity", "3"]) == 0


def test_hda_weight_as_a_json_number(tmp_path, capsys):
    text = '{"dims": {"0": 1}, "lambda": %s, "bound": 2, "m": {}, "d": {}}'
    path = tmp_path / "structure.json"
    path.write_text(text % "1")
    assert main(["hda", "check", "--structure", str(path)]) == 0
    for spec in ("0.5", "null", "[1]"):
        path.write_text(text % spec)
        assert main(["hda", "check", "--structure", str(path)]) == 2
        assert "bad input" in capsys.readouterr().err


def test_hda_structure_with_bad_values_exits_two(tmp_path, capsys):
    # a coefficient that is no string or divides by zero, a size that is
    # no JSON integer, a negative dimension, a space with no positive
    # dimension and a bound below 1 are bad input
    path = tmp_path / "structure.json"
    good = {"dims": {"0": 1}, "lambda": "1", "bound": 2, "m": {}, "d": {}}
    path.write_text(json.dumps(good))
    assert main(["hda", "check", "--structure", str(path)]) == 0
    bad_coeffs = [{"d": {"1": [{"args": ["0:0"], "out": [["0:0", c]]}]}}
                  for c in (1, "1/0")]
    for bad in (*bad_coeffs, {"dims": {"0": 1.5}}, {"dims": {"0": True}},
                {"bound": 2.7}, {"bound": True}, {"bound": "2"},
                {"dims": {"0": -1}}, {"dims": {"0": 1, "1": -1}},
                {"dims": {"0": 0}}, {"dims": {}}, {"bound": -3},
                {"bound": 0}):
        path.write_text(json.dumps({**good, **bad}))
        assert main(["hda", "check", "--structure", str(path)]) == 2
        assert "bad input" in capsys.readouterr().err


def test_dif_normalize_and_contract_apply(tmp_path):
    element = json.dumps([{"coeff": "1", "tree": "(m2 (m2 _ _) _)"}])
    path = tmp_path / "el.json"
    path.write_text(element)
    assert main(["dif", "normalize", "--in", str(path)]) == 0
    assert main(["contract", "apply", "--in", str(path)]) == 0


def test_difinfty_diff_output(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["difinfty", "diff", "--gen", "d2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    records = json.loads(report["output"])
    assert {"coeff": "1", "tree": "(d1 (m2 _ _))"} in records


def test_koszul_delta_listing(capsys):
    assert main(["koszul", "delta", "--gen", "sd2", "--list"]) == 0
    shown = capsys.readouterr().out
    assert "sm2 (x) sd1 (x) sd1" in shown


def test_usage_error_exit_code():
    assert main(["difinfty", "diff", "--gen", "zz9"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("command, flag, value", [
    ("linfty jacobi", "--dim", "0"),
    ("linfty jacobi", "--dim", "-3"),
    ("linfty jacobi", "--maxn", "0"),
    ("linfty jacobi", "--arity", "0"),
    ("linfty jacobi", "--trials", "0"),
    ("linfty jacobi", "--jobs", "0"),
    ("contract verify", "--jobs", "0"),
    ("contract verify", "--max-arity", "0"),
    ("contract verify", "--max-degree", "0"),
    ("contract verify", "--max-weight", "0"),
    ("difinfty d2check", "--max-arity", "0"),
    ("koszul crosscheck", "--max-arity", "-1"),
    ("mc twist-compare", "--max-arity", "0"),
    ("hda check", "--max-arity", "0"),
    ("cohomology compute", "--max-level", "-1"),
    ("cohomology compare-twist", "--max-level", "-1"),
])
def test_size_flag_below_its_minimum_exits_two(command, flag, value, capsys):
    assert main(command.split() + [flag, value]) == 2
    assert "below the minimum" in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["linfty", "jacobi", "--dim", "1", "--maxn", "2", "--trials", "4",
            "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()



def test_linfty_jacobi_jobs_report_matches_serial(tmp_path):
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    args = ["linfty", "jacobi", "--dim", "1", "--maxn", "3", "--trials", "4",
            "--seed", "3"]
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert parallel.read_bytes() == serial.read_bytes()


def test_worker_count_is_bounded_by_cpus_and_tasks(tmp_path, monkeypatch):
    # a stand-in pool records max_workers and runs the tasks in this process
    import concurrent.futures
    import os

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    verify = ["contract", "verify", "--max-arity", "4", "--max-degree", "1",
              "--max-weight", "3", "--jobs", "4000"]   # 99 monomials
    jacobi = ["linfty", "jacobi", "--dim", "1", "--maxn", "2", "--trials",
              "2", "--jobs", "4000"]                   # 2 widths
    for cpus, expected in (({0, 1, 2}, [3, 2]), ({0}, [])):
        seen.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        out = tmp_path / "verify.json"
        assert main(verify + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["jobs"] == 4000
        assert main(jacobi) == 0
        assert seen == expected


SELFTESTS = [
    ["difinfty", "diff", "--gen", "m2"],
    ["difinfty", "d2check"],
    ["dif", "normalize"],
    ["koszul", "delta", "--gen", "mt1"],
    ["koszul", "crosscheck"],
    ["contract", "apply"],
    ["contract", "verify"],
    ["linfty", "jacobi"],
    ["mc", "check"],
    ["mc", "twist-compare"],
    ["cohomology", "compute"],
    ["cohomology", "compare-twist"],
    ["hda", "check"],
]


@pytest.mark.parametrize("argv", SELFTESTS, ids=lambda a: " ".join(a[:2]))
def test_every_subcommand_selftest(argv):
    assert main(argv + ["--selftest"]) == 0


# every subcommand's options in --help order, each with the value it parses
# to when only the required ones are given
LAM, OUT = ("--lambda", "generic"), ("--out", None)
SELFTEST, SEED, JOBS = ("--selftest", False), ("--seed", 0), ("--jobs", 1)
FLAGS = {
    ("difinfty", "diff", "--gen", "m2"): [
        ("--gen", "m2"), LAM, OUT, SELFTEST],
    ("difinfty", "d2check"): [("--max-arity", 6), LAM, OUT, SELFTEST],
    ("dif", "normalize"): [("--in", None), LAM, OUT, SELFTEST],
    ("koszul", "delta", "--gen", "sd2"): [
        ("--gen", "sd2"), ("--list", False), LAM, OUT, SELFTEST],
    ("koszul", "crosscheck"): [("--max-arity", 6), LAM, OUT, SELFTEST],
    ("contract", "apply"): [("--in", None), LAM, OUT, SELFTEST],
    ("contract", "verify"): [
        ("--max-arity", 4), ("--max-degree", 2), ("--max-weight", 4), LAM,
        OUT, SELFTEST, JOBS],
    ("linfty", "jacobi"): [
        ("--dim", 2), ("--maxn", 5), ("--arity", 3), ("--trials", 64),
        ("--two-degree", False), LAM, OUT, SELFTEST, SEED, JOBS],
    ("mc", "check"): [("--algebra", None), OUT, SELFTEST],
    ("mc", "twist-compare"): [
        ("--algebra", None), ("--max-arity", 4), OUT, SELFTEST],
    ("cohomology", "compute"): [
        ("--algebra", None), ("--bimodule", None), ("--max-level", 4), OUT,
        SELFTEST],
    ("cohomology", "compare-twist"): [
        ("--algebra", None), ("--max-level", 4), OUT, SELFTEST, SEED],
    ("hda", "check"): [
        ("--structure", None), ("--max-arity", 4), OUT, SELFTEST],
}


def _choices(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flags_table_covers_every_subcommand():
    parser = build_parser()
    listed = {(group, sub) for group, gp in _choices(parser).items()
              for sub in _choices(gp)}
    assert listed == {argv[:2] for argv in FLAGS}
    assert len(listed) == len(SELFTESTS)


@pytest.mark.parametrize("argv", FLAGS, ids=lambda a: " ".join(a[:2]))
def test_subcommand_flags_and_defaults(argv):
    parser = build_parser()
    args = parser.parse_args(list(argv))
    sub = _choices(_choices(parser)[argv[0]])[argv[1]]
    got = [(opt, getattr(args, a.dest)) for a in sub._actions
           if a.dest != "help" for opt in a.option_strings]
    assert got == FLAGS[argv]


@pytest.mark.parametrize("argv", [
    ["mc", "check"],
    ["mc", "twist-compare"],
    ["cohomology", "compute"],
    ["cohomology", "compare-twist"],
    ["hda", "check"],
], ids=" ".join)
def test_lambda_is_refused_where_the_input_file_fixes_the_weight(argv):
    # the selftest alone passes, so exit 2 can only come from the flag
    assert main(argv + ["--selftest", "--lambda", "2"]) == 2


def test_unparsable_element_file_exits_two(tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps([{"coeff": "1", "tree": "(m2 _)"}]))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps([{"coeff": "1", "tree": "(m2 _ _)"},
                                 {"coeff": "1", "tree": "(m3 _ _ _)"}]))
    for path in (malformed, mixed, tmp_path / "missing.json"):
        assert main(["contract", "apply", "--in", str(path)]) == 2
        assert "bad input" in capsys.readouterr().err
    assert main(["contract", "apply"]) == 2    # no --in at all
    # a numeric coefficient and a zero denominator are bad input too
    for coeff in (1, "1/0"):
        path = tmp_path / "bad_coeff.json"
        path.write_text(json.dumps([{"coeff": coeff, "tree": "(m2 _ _)"}]))
        for command in (["contract", "apply"], ["dif", "normalize"]):
            assert main([*command, "--in", str(path)]) == 2
            assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    "HomogeneityError", "ForeignGeneratorError", "InternalInvariantError"])
def test_invariant_error_after_parsing_exits_three(error, tmp_path,
                                                   monkeypatch, capsys):
    from operad_forge import contraction, dif_operads, free_operad, trees

    cls = {"HomogeneityError": free_operad.HomogeneityError,
           "ForeignGeneratorError": trees.ForeignGeneratorError,
           "InternalInvariantError": dif_operads.InternalInvariantError}[error]

    def broken(self, x):
        raise cls("injected")

    monkeypatch.setattr(contraction.Contraction, "apply", broken)
    path = tmp_path / "el.json"
    path.write_text(json.dumps([{"coeff": "1", "tree": "(m2 (m2 _ _) _)"}]))
    assert main(["contract", "apply", "--in", str(path)]) == 3
    assert f"internal error: {error}" in capsys.readouterr().err


def test_rewrite_limit_exits_two_naming_the_bound(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("OPERAD_FORGE_MAX_STEPS", "1")
    path = tmp_path / "el.json"
    path.write_text(json.dumps(
        [{"coeff": "1", "tree": "(d1 (m2 (m2 _ _) _))"}]))
    assert main(["dif", "normalize", "--in", str(path)]) == 2
    assert "OPERAD_FORGE_MAX_STEPS" in capsys.readouterr().err


def two_dim_files():
    """The JSON of TWO_DIM (diagonal, d = -id, L = 1) and of its regular
    bimodule, as dicts to be broken one entry at a time."""
    alg = json.loads(dump_algebra(DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]], 1)))
    bim = {"dim": 2, "left": alg["mult"], "right": alg["mult"], "d": alg["d"]}
    return alg, bim


def malformed(case):
    alg, bim = two_dim_files()
    if case == "mult row of one entry":
        alg["mult"][1] = alg["mult"][1][:1]
    elif case == "d row of length 1":
        alg["d"][1] = alg["d"][1][:1]
    elif case == "algebra dim 3 over 2 x 2 tables":
        alg["dim"] = 3
    elif case == "bimodule dim 5":
        bim["dim"] = 5
    elif case == "dim-1 bimodule over a dim-2 algebra":
        bim = {"dim": 1, "left": [[["1"]]], "right": [[["1"]]], "d": [["0"]]}
    elif case == "float lambda":
        alg["lambda"] = 0.5
    return alg, bim


@pytest.mark.parametrize("case, command", [
    ("mult row of one entry", "mc check"),
    ("mult row of one entry", "mc twist-compare"),
    ("mult row of one entry", "cohomology compute"),
    ("d row of length 1", "mc check"),
    ("algebra dim 3 over 2 x 2 tables", "mc check"),
    ("bimodule dim 5", "cohomology compute"),
    ("dim-1 bimodule over a dim-2 algebra", "cohomology compute"),
    ("float lambda", "cohomology compute"),
])
def test_malformed_algebra_or_bimodule_file_exits_two(case, command, tmp_path,
                                                      capsys):
    alg, bim = malformed(case)
    alg_path, bim_path = tmp_path / "alg.json", tmp_path / "bim.json"
    alg_path.write_text(json.dumps(alg))
    bim_path.write_text(json.dumps(bim))
    argv = command.split() + ["--algebra", str(alg_path)]
    if command == "cohomology compute":
        argv += ["--bimodule", str(bim_path), "--max-level", "1"]
    elif command == "mc twist-compare":
        argv += ["--max-arity", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_well_formed_two_dim_files_pass(tmp_path):
    # the files the malformed cases start from, unbroken
    alg, bim = two_dim_files()
    alg_path, bim_path = tmp_path / "alg.json", tmp_path / "bim.json"
    alg_path.write_text(json.dumps(alg))
    bim_path.write_text(json.dumps(bim))
    assert main(["mc", "check", "--algebra", str(alg_path)]) == 0
    assert main(["cohomology", "compute", "--algebra", str(alg_path),
                 "--bimodule", str(bim_path), "--max-level", "1"]) == 0


def test_integral_rational_strings_load_and_report_as_integers(tmp_path):
    # the same algebra with its entries 1 and -2 written as "2/2" and
    # "-4/2": equal tables of ints, and the same report byte for byte
    from operad_forge.algebras import load_algebra

    ints = {"dim": 2, "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "d": [[-2, 0], [0, -2]], "lambda": "1/2"}
    strings = json.loads(json.dumps(ints).replace("1]", '"2/2"]').replace(
        "-2", '"-4/2"'))
    assert strings["mult"][1][1] == [0, "2/2"]
    assert strings["d"][0] == ["-4/2", 0]
    path, out = tmp_path / "alg.json", tmp_path / "report.json"
    reports, tables = [], []
    for obj in (ints, strings):
        alg = load_algebra(json.dumps(obj))
        tables.append((alg.mult, alg.d, alg.lam))
        assert {type(c) for vec in alg.d for c in vec} == {int}
        assert {type(c) for row in alg.mult for vec in row
                for c in vec} == {int}
        path.write_text(json.dumps(obj))
        assert main(["cohomology", "compute", "--algebra", str(path),
                     "--max-level", "3", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]
