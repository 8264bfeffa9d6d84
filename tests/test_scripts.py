"""Every script under ``scripts/`` runs to exit 0 at its smallest size.

Each runs in its own interpreter with the package's ``src`` first on its
path, so a script that reaches a renamed or deleted name fails here.
``run_acceptance.py`` is left out: it runs the acceptance tests through
pytest itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "contraction_sweep.py": ["--weights", "2"],
    "d_square_sweep.py": ["--arities", "3"],
    "cohomology_sweep.py": ["--max-level", "2"],
    "deformation_demo.py": [],
    "resolution_tour.py": [],
}


def test_every_script_but_the_acceptance_runner_is_listed():
    scripts = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert scripts == set(SCRIPTS) | {"run_acceptance.py"}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
