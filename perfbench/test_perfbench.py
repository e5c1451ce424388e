"""Tests of the benchmark itself: inputs, output checks and the traced run.

    python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = str(Path(__file__).resolve().parent / "worker.py")


def run_worker(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, WORKER, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_same_seed_regenerates_the_same_channel_stream():
    first = list(islice(workloads.channel_requests(7), 300))
    assert first == list(islice(workloads.channel_requests(7), 300))
    assert first != list(islice(workloads.channel_requests(8), 300))
    assert len({tuple(r.values()) for r in first}) == len(first)
    for r in first:
        assert 1 <= r["n"] <= r["Z"] <= 12 and 0 <= r["l"] <= 3 and 1 <= r["k"] <= 12
        assert workloads.fits_box(r)
    assert max(r["k"] for r in first) == 12


def test_box_share_keeps_states_out_of_the_box():
    # bare hydrogen: <r> = 1.5 nu^2 for s states, so nu = 6 fits r_max / 3 and nu = 7 not
    assert workloads.fits_box({"model": "bare", "Z": 1, "n": 1, "l": 0, "k": 6})
    assert not workloads.fits_box({"model": "bare", "Z": 1, "n": 1, "l": 0, "k": 7})
    assert workloads.fits_box({"model": "bare", "Z": 12, "n": 1, "l": 3, "k": 12})


@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP aim 3: states past the box are "
                   "returned as bound levels; once they are refused, channel_requests can "
                   "drop fits_box and draw the whole range")
def test_box_states_are_refused_or_on_the_oracle():
    import atomscreen.cli as cli
    from atomscreen import model, spectra
    from atomscreen.eigensolve import EigensolverError

    request = {"model": "bare", "Z": 1, "n": 1, "l": 0, "k": 14}
    atom = cli._resolve_solve_atom(1, 1, 0, 3)[0]
    try:
        states = spectra.solve_channel(atom, model.Pseudopotential.BARE_COULOMB, 0, 14)
    except (EigensolverError, ValueError):
        return  # a refusal is a correct outcome
    result = {"status": "ok", "states": [[s.nu, s.raw_energy] for s in states]}
    assert workloads.check_channel(request, result) is None


def test_same_seed_regenerates_the_same_table_rounds():
    assert list(islice(workloads.table_rounds(3), 5)) == list(islice(workloads.table_rounds(3), 5))


def test_tampered_csv_is_counted_as_failed():
    good = (workloads.EXPECTED_DIR / "table2.csv").read_bytes()
    assert workloads.check_table("table2", 0, good) is None
    tampered = good.replace(b"79.159454", b"79.159455")
    assert tampered != good
    assert workloads.check_table("table2", 0, tampered) is not None
    assert workloads.check_table("table2", 1, good) is not None


def exact_states(request):
    first = request["l"] + 1
    return [[nu, workloads.oracle_energy(request["model"], request["Z"], request["n"],
                                         request["l"], nu)]
            for nu in range(first, first + request["k"])]


def test_state_off_the_oracle_is_counted_as_failed():
    request = {"model": "symmetry", "Z": 5, "n": 3, "l": 1, "k": 3}
    states = exact_states(request)
    assert workloads.check_channel(request, {"status": "ok", "states": states}) is None
    shifted = [list(s) for s in states]
    shifted[2][1] += 2 * workloads.CHANNEL_ORACLE_TOL
    assert workloads.check_channel(request, {"status": "ok", "states": shifted}) is not None
    unbound = [list(s) for s in states]
    unbound[2][1] = 1e-3
    assert workloads.check_channel(request, {"status": "ok", "states": unbound}) is not None
    assert workloads.check_channel(request, {"status": "refused", "states": []}) is None
    assert workloads.check_channel(request, {"status": "error", "states": []}) is not None


def test_self_time_is_duration_minus_child_coverage():
    # op 0..10 s > spectra 1..9 s > eigensolve 2..5 s and 6..8 s
    recorded = [
        [0, 0, -1, "op", 0.0, 10.0, 0.0],
        [0, 1, 0, "spectra.solve_channel", 1.0, 9.0, 2.0],
        [0, 2, 1, "eigensolve.solve_lowest", 2.0, 5.0, 1.0],
        [0, 3, 1, "eigensolve.solve_lowest", 6.0, 8.0, 1.0],
    ]
    metrics = spans.summarize(recorded, ops=2)
    assert metrics["spectra.self_ms"] == 1e3 * 3.0 / 2
    assert metrics["eigensolve.solve_lowest_ms"] == 1e3 * 5.0 / 2
    assert metrics["spectra.states_solved_per_state_used"] == 1.0
    merged = spans.merge([recorded, recorded])
    assert [s[1] for s in merged] == list(range(8)) and merged[6][2] == 5


def test_traced_run_returns_the_same_outputs_as_the_untraced_run():
    plain = run_worker("channels", "--seed", 5, "--count", 3)
    traced = run_worker("channels", "--seed", 5, "--count", 3, "--trace")
    keep = ("request", "status", "states")
    assert [{k: r[k] for k in keep} for r in traced["results"]] == [
        {k: r[k] for k in keep} for r in plain["results"]]
    metrics = spans.summarize(traced["spans"], ops=3)
    assert metrics["operators.assemble_calls"] == 1.0
    assert metrics["eigensolve.solve_lowest_ms"] > metrics["eigensolve.eig_ms"] > 0.0

    table = run_worker("cli", "table2", "--format", "csv")
    assert table["returncode"] == 0
    assert table["stdout"].encode() == (workloads.EXPECTED_DIR / "table2.csv").read_bytes()
    metrics = spans.summarize(table["spans"], ops=1)
    assert metrics["spectra.solves"] == 12.0
    assert metrics["bsplines.workspaces_built"] == 1.0
