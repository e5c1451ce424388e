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


#: Resident kB of the OpenBLAS each wheel bundles (numpy.libs/ or scipy.libs/,
#: numpy/.libs/ on numpy 1.x), from /proc/self/smaps, after ``import
#: atomscreen.cli`` and again after table1, table2 and table3 ran in-process;
#: null where the package ships no such library (conda, MKL).
OPENBLAS_PROBE = """
import contextlib, io, json, os, re
import numpy, scipy
import atomscreen.cli as cli

def resident_kb(package):
    here = os.path.dirname(os.path.realpath(package.__file__))
    dirs = {os.path.join(os.path.dirname(here), package.__name__ + ".libs"),
            os.path.join(here, ".libs")}
    total, counted = None, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split(maxsplit=5)
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", fields[0]):  # a mapping's header
                path = fields[5].strip() if len(fields) > 5 else ""
                counted = os.path.dirname(path) in dirs and "openblas" in os.path.basename(path)
            elif counted and fields[0] == "Rss:":
                total = (total or 0) + int(fields[1])
    return total

before = {p.__name__: resident_kb(p) for p in (numpy, scipy)}
for command in ("table1", "table2", "table3"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--format", "csv"]) == 0
print(json.dumps({p.__name__: [before[p.__name__], resident_kb(p)] for p in (numpy, scipy)}))
"""


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs Linux /proc/self/smaps")
def test_table_commands_page_in_only_scipys_openblas():
    """numpy's and scipy's wheels each bundle an OpenBLAS. The solver's
    LAPACK is scipy's, and nothing a table command runs may call numpy's:
    its resident pages must not grow from import to the end of the three
    tables (the Gauss-Legendre rule and every product avoid numpy's BLAS)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", OPENBLAS_PROBE], capture_output=True,
                            text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    resident = json.loads(result.stdout)
    if None in resident["numpy"] or None in resident["scipy"]:
        pytest.skip("numpy or scipy bundles no OpenBLAS of its own")
    numpy_before, numpy_after = resident["numpy"]
    scipy_before, scipy_after = resident["scipy"]
    assert scipy_after > scipy_before  # the probe sees the library that does run
    assert numpy_after <= numpy_before


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_matches_the_benchmark(path):
    """Each committed bench record names its PR as its file does, and gives
    every workload and end-to-end metric of BENCHMARK.json, in its unit and
    direction, with ordered quartiles on both sides, pairs won out of its
    seeds, and the operations each side attempted and failed."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['pr']}.json"
    for workload in benchmark["workloads"]:
        entry = record["workloads"][workload["name"]]
        for metric in benchmark["end_to_end"]:
            measured = entry["metrics"][metric["name"]]
            assert (measured["unit"], measured["better"]) == (metric["unit"], metric["better"])
            for side in ("parent", "change"):
                quartiles = measured[side]
                assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"], (metric, side)
            assert 0 <= measured["pairs_won_by_change"] <= len(record["seeds"])
        for side in ("parent", "change"):
            operations = entry["operations"][side]
            assert 0 <= operations["failed"] <= operations["attempted"], side
            assert isinstance(operations["all_correct"], bool), side
