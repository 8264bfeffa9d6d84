"""Byte-for-byte regression of CLI `--out` reports against recorded files.

`test_reports_byte_identical` in test_cli.py compares two runs in one
process; these files pin the bytes across versions of the code.  The input
elements live next to the reports and are passed by bare file name from
that directory, so the `in` parameter echoed in a report does not depend on
where the suite runs.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from operad_forge.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "difinfty_diff_d5": ["difinfty", "diff", "--gen", "d5"],
    "contract_apply": ["contract", "apply", "--in", "contract_apply_in.json"],
    "dif_normalize": ["dif", "normalize", "--in", "dif_normalize_in.json"],
    "koszul_crosscheck_6": ["koszul", "crosscheck", "--max-arity", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


def record() -> None:
    import os

    os.chdir(GOLDEN_DIR)
    for name, argv in CASES.items():
        if main(argv + ["--out", f"{name}.json"]) != 0:
            raise SystemExit(f"{name}: command failed")


if __name__ == "__main__":
    record()
