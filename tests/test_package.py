import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("model", "bsplines", "operators", "eigensolve", "spectra", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = import_module(f"atomscreen.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # pyproject's filterwarnings does not reach a subprocess
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                            text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_benchmark_tracer_binds_to_the_package():
    """perfbench/spans.py wraps the package by module attribute; it must still
    find every name it looks up, and the traced solve must stay banded."""
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from atomscreen import spectra\n"
        "from atomscreen.model import Pseudopotential, catalog_atom\n"
        "with tracer.operation():\n"
        "    spectra.solve_channel(catalog_atom('Li'), Pseudopotential.SYMMETRY_DEPENDENT, 0, 3)\n"
        "print(json.dumps(spans.summarize(tracer.spans, ops=1)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout)
    assert metrics["eigensolve.solve_lowest_calls"] == 1.0
    assert metrics["eigensolve.eig_ms"] > 0.0
    assert metrics["eigensolve.dense_bytes"] == 0.0
    assert metrics["eigensolve.transform_ms"] == 0.0
