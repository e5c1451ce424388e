import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from conftest import CountingSeeds

from atomscreen import bsplines, cli, eigensolve
from atomscreen.bsplines import PAPER_GRID, GridSpec
from atomscreen.cli import (
    _OPTIONS,
    MODEL_A_TOLERANCES,
    ConfigError,
    RunConfig,
    _checked_grid,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from atomscreen.model import atom_catalog, effective_charge, hydrogenic_energy

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
#: Table CSVs recorded byte for byte from the reference implementation.
EXPECTED = ROOT / "perfbench" / "expected"
#: Table text output, recorded byte for byte like the CSVs.
RECORDED = ROOT / "tests" / "data"


#: ROADMAP direction 19's three ranges of ``solve`` requests, each drawn from
#: its own seed: Z 1-40, n 1-Z, l 0-5, every model, 1-14 states, 3-900
#: splines of order 1-16 on either knot layout, 1-30 nodes per interval or
#: the default, and r_max and r_first log-uniform over these bounds (bohr);
#: "edge" reaches down to the smallest subnormal float.
EXIT_CONTRACT_DRAWS = {
    "wide": dict(seed=1, r_max=(1e-3, 1e200), r_first=(1e-320, 100.0)),
    "realistic": dict(seed=3, r_max=(1.0, 1e4), r_first=(1e-8, 0.1)),
    "edge": dict(seed=7, r_max=(5e-324, 1e-3), r_first=(5e-324, 1e-3)),
}
#: Requests drawn from each range.
EXIT_CONTRACT_DRAW_COUNT = 150
#: The seed of each range's ``converge`` and table draws, over the same grids.
COMMAND_DRAW_SEEDS = {"wide": 5, "realistic": 6, "edge": 8}
#: ``converge`` and then table requests drawn from each range.
CONVERGE_DRAW_COUNT, TABLE_DRAW_COUNT = 40, 12
MODELS = ["bare", "symmetry", "central"]


def grid_options(rng, r_max, r_first):
    """The grid flags of one seeded draw, by flag: its --quad-nodes is absent
    when the draw takes the default rule."""

    def log_uniform(low, high):
        return 10.0 ** rng.uniform(math.log10(low), math.log10(high))

    options = {"--splines": str(rng.randint(3, 900)),
               "--order": str(rng.randint(1, 16)),
               "--knots": rng.choice(["exp-linear", "linear"]),
               "--rmax": repr(log_uniform(*r_max)),
               "--rfirst": repr(log_uniform(*r_first))}
    nodes = rng.choice([None, *range(1, 31)])
    if nodes is not None:
        options["--quad-nodes"] = str(nodes)
    return options


def flags(options):
    return [word for flag in options.items() for word in flag]


def solve_requests(seed, r_max, r_first):
    """The seeded ``solve`` argument lists of one EXIT_CONTRACT_DRAWS range."""
    rng = random.Random(seed)
    for _ in range(EXIT_CONTRACT_DRAW_COUNT):
        z = rng.randint(1, 40)
        args = ["solve", str(z), str(rng.randint(1, z)), str(rng.randint(0, 5)),
                "--model", rng.choice(MODELS), "--kstates", str(rng.randint(1, 14))]
        yield [*args, *flags(grid_options(rng, r_max, r_first))]


def command_requests(seed, r_max, r_first):
    """The seeded ``converge`` and then table argument lists of one range:
    a catalog atom's state of l <= 3 and nu <= l + 6 in any model, swept
    over two spline or node counts of grid_options' ranges (the swept
    option's own flag left out), and a table in text format."""
    rng = random.Random(seed)
    atoms = [atom.name for atom in atom_catalog()]
    for _ in range(CONVERGE_DRAW_COUNT):
        l = rng.randint(0, 3)
        args = ["converge", "--atom", rng.choice(atoms),
                "--state", f"{rng.randint(l + 1, l + 6)}{'spdf'[l]}",
                "--model", rng.choice(MODELS)]
        options = grid_options(rng, r_max, r_first)
        if rng.random() < 0.5:
            options.pop("--splines")
            sweep = ["--sweep-splines", f"{rng.randint(3, 900)},{rng.randint(3, 900)}"]
        else:
            options.pop("--quad-nodes", None)
            sweep = ["--sweep-nodes", f"{rng.randint(1, 30)},{rng.randint(1, 30)}"]
        yield [*args, *sweep, *flags(options)]
    for _ in range(TABLE_DRAW_COUNT):
        table = rng.choice(sorted(cli._TABLE_BUILDERS))
        yield [table, *flags(grid_options(rng, r_max, r_first))]


def assert_exit_contract(args, capsys):
    """Exit 0 with the answer, 1 for a numerical refusal or 2 for a usage
    error, never a traceback or a warning, and nothing on stdout on a
    refusal, but for a table that computed its rows and failed model A's
    gate, which it says."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), args
    assert not caught, (args, [str(w.message) for w in caught])
    if code == 1 and args[0] in cli._TABLE_BUILDERS and out:
        assert "model A gate: FAIL" in out, args
    else:
        assert code == 0 or out == "", args


def run_cli(args, tmp_path, out_name="out.txt"):
    """Invoke main() in-process, capturing the emitted text via --out."""
    out = tmp_path / out_name
    code = main([*args, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def run_subprocess(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "atomscreen", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestTableCommands:
    def test_table1_default_passes(self, tmp_path):
        code, text = run_cli(["table1"], tmp_path)
        assert code == 0
        assert "model A gate: PASS" in text
        assert "Li" in text and "24.76" in text
        # model-B rows beyond tolerance must be called out, not hidden
        assert "model B discrepancy report" in text
        assert "He: computed" in text

    def test_table2_and_table3_pass(self, tmp_path):
        for command in ("table2", "table3"):
            code, text = run_cli([command], tmp_path)
            assert code == 0, text
            assert "model A gate: PASS" in text

    def test_tolerances_are_pinned(self):
        assert MODEL_A_TOLERANCES == {"table1": 0.01, "table2": 0.005, "table3": 0.002}

    def test_parser_offers_the_declared_tables_and_two_commands(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(commands) == set(cli._TABLE_BUILDERS) | {"solve", "converge"}

    def test_table1_json_schema(self, tmp_path):
        code, text = run_cli(["table1", "--format", "json"], tmp_path, "rows.json")
        assert code == 0
        rows = json.loads(text)
        assert len(rows) == 11
        required = {"atom", "model_a_ev", "model_b_ev", "golden_a", "golden_b",
                    "reference_ev"}
        for row in rows:
            assert required <= set(row)
            assert not any(isinstance(v, dict) for v in row.values())
        lithium = next(r for r in rows if r["atom"] == "Li")
        assert lithium["model_a_ev"] == pytest.approx(5.50, abs=0.01)

    def test_magnesium_override_fails_the_gate(self, tmp_path):
        code, text = run_cli(["table1", "--mg-mn", "2"], tmp_path)
        assert code == 1
        assert "model A gate: FAIL" in text

    def test_codata_units_skip_golden_comparison(self, tmp_path):
        code, text = run_cli(["table1", "--units", "codata", "--format", "json"],
                             tmp_path, "codata.json")
        assert code == 0
        rows = json.loads(text)
        assert "dev_a" not in rows[0]
        lithium = next(r for r in rows if r["atom"] == "Li")
        assert lithium["model_a_ev"] == pytest.approx(5.5024, abs=2e-4)
        code, text = run_cli(["table1", "--units", "codata"], tmp_path)
        assert code == 0
        assert "golden comparison skipped" in text

    def test_csv_has_header_and_plain_decimals(self, tmp_path):
        code, text = run_cli(["table3", "--format", "csv"], tmp_path, "t3.csv")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0].startswith("state,model_a_ev,model_b_ev,")
        assert len(lines) == 10
        assert "," in lines[1] and ";" not in text


class TestSolveCommand:
    def test_bare_hydrogen_levels(self, tmp_path):
        code, text = run_cli(
            ["solve", "1", "1", "0", "--model", "bare", "--kstates", "3",
             "--format", "json"],
            tmp_path, "h.json")
        assert code == 0
        payload = json.loads(text)
        raw = [s["raw_hartree"] for s in payload["states"]]
        assert raw == pytest.approx([-0.5, -0.125, -1 / 18], abs=1e-8)
        assert payload["states"][0]["scaled_hartree"] == payload["states"][0]["raw_hartree"]

    def test_symmetry_model_reports_alpha_and_zeff(self, tmp_path):
        code, text = run_cli(["solve", "3", "3", "1", "--kstates", "1"], tmp_path)
        assert code == 0
        assert "alpha = 0.666666667" in text
        assert "Z_eff = 1.252839" in text
        assert "m/n = 2/3" in text
        assert "-3.557" in text

    def test_non_catalog_atom_notes_unit_scaling(self, tmp_path):
        code, text = run_cli(
            ["solve", "5", "2", "0", "--model", "central", "--kstates", "1"], tmp_path)
        assert code == 0
        assert "not a catalog atom" in text

    def test_smallest_grid_solves(self, tmp_path):
        # 5 splines of order 2: the seed workspace has no active spline
        code, text = run_cli(
            ["solve", "3", "3", "0", "--model", "central", "--splines", "5", "--order", "2",
             "--quad-nodes", "2", "--kstates", "1"], tmp_path)
        assert code == 0
        assert "-0.0171062" in text

    def test_rejects_unphysical_input(self, tmp_path):
        code, _ = run_cli(["solve", "0", "1", "0"], tmp_path)
        assert code == 2

    def test_order_alone_sets_the_node_count(self, capsys, monkeypatch):
        rules, workspace = [], bsplines._workspace

        def recording(basis, quad):
            rules.append(quad.nodes.shape[1])
            return workspace(basis, quad)

        monkeypatch.setattr(bsplines, "_workspace", recording)
        bsplines._grid_workspace.cache_clear()
        argv = ["solve", "1", "1", "0", "--model", "bare", "--order", "12", "--kstates", "2"]
        assert main(argv) == 0
        assert rules == [12]
        capsys.readouterr()
        # an explicit count keeps its meaning and its check
        assert main([*argv, "--quad-nodes", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nodes_per_interval must be >= order_k" in captured.err

    def test_grid_above_1540_splines_solves(self):
        result = run_subprocess(
            ["solve", "3", "3", "0", "--splines", "1550", "--kstates", "1",
             "--format", "json"])
        assert result.returncode == 0, result.stderr
        ground = json.loads(result.stdout)["states"][0]["raw_hartree"]
        exact = hydrogenic_energy(effective_charge(3, 3, 0), 1)
        assert ground == pytest.approx(exact, abs=1e-8)


class TestRecordedOutput:
    @pytest.mark.parametrize("command", ["table1", "table2", "table3"])
    def test_table_csv_matches_recorded_bytes(self, command):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run([sys.executable, "-m", "atomscreen", command, "--format", "csv"],
                                capture_output=True, env=env)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout == (EXPECTED / f"{command}.csv").read_bytes()

    @pytest.mark.parametrize(("args", "recorded"), [
        (["table1"], "table1.txt"),
        (["table2"], "table2.txt"),
        (["table3"], "table3.txt"),
        (["table1", "--units", "codata"], "table1_codata.txt"),
    ], ids=["table1", "table2", "table3", "table1-codata"])
    def test_table_text_matches_recorded_bytes(self, args, recorded, tmp_path):
        out = tmp_path / "table.txt"
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == (RECORDED / recorded).read_bytes()

    @pytest.mark.parametrize(("args", "places"), [
        (["solve", "3", "3", "0"],
         {"nu": 0, "raw_hartree": 12, "scaled_hartree": 12, "scaled_ev": 6}),
        (["converge", "--sweep-nodes", "10,20"],
         {"quad_nodes": 0, "eigenvalue_hartree": 15, "delta_hartree": None}),
    ], ids=["solve", "converge"])
    def test_csv_and_text_rows_give_back_the_json_values(self, args, places, capsys):
        """Each printed cell is the JSON value rounded to its printed places
        (None: three significant decimals in e-notation); None prints empty."""
        printed = {}
        for fmt in ("json", "csv", "text"):
            assert main([*args, "--format", fmt]) == 0
            printed[fmt] = capsys.readouterr().out
        doc = json.loads(printed["json"])
        rows = doc["states"] if isinstance(doc, dict) else doc
        csv_lines = printed["csv"].splitlines()
        assert csv_lines[0].split(",") == list(places)
        text_lines = [line for line in printed["text"].splitlines() if not line.startswith("#")]
        for cells in ([line.split(",") for line in csv_lines[1:]],
                      [line.split() for line in text_lines[1:]]):
            assert len(cells) == len(rows)
            for row, row_cells in zip(rows, cells):
                got = dict(zip(places, row_cells))
                for key, digits in places.items():
                    if row[key] is None:
                        assert got.get(key, "") == ""
                    elif digits is None:
                        assert float(got[key]) == pytest.approx(row[key], rel=5.1e-4, abs=0)
                    else:
                        assert float(got[key]) == pytest.approx(
                            row[key], rel=0, abs=0.51 * 10.0 ** -digits)

    def test_cli_import_leaves_scipy_special_unloaded(self):
        # and so do two commands, so an import moved into a function is
        # caught too
        env = dict(os.environ, PYTHONPATH=SRC)
        probe = ("import contextlib, io, sys, atomscreen.cli as cli\n"
                 "print('scipy.special' in sys.modules)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    codes = [cli.main(['table3']),\n"
                 "             cli.main(['solve', '1', '1', '0', '--model', 'bare'])]\n"
                 "print(codes, 'scipy.special' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n") == ["False", "[0, 0] False", ""]


class TestConvergeCommand:
    def test_node_sweep_is_stable(self, tmp_path):
        code, text = run_cli(
            ["converge", "--sweep-nodes", "10,20", "--splines", "80", "--order", "6",
             "--rmax", "60", "--format", "csv"],
            tmp_path, "conv.csv")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "quad_nodes,eigenvalue_hartree,delta_hartree"
        delta = float(lines[2].split(",")[2])
        assert delta <= 1e-10

    def test_spline_sweep_reports_deltas(self, tmp_path):
        code, text = run_cli(
            ["converge", "--sweep-splines", "60,80", "--order", "6", "--rmax", "60",
             "--state", "2s", "--atom", "Li", "--format", "json"],
            tmp_path, "conv.json")
        assert code == 0
        rows = json.loads(text)
        assert rows[0]["delta_hartree"] is None
        assert rows[1]["delta_hartree"] >= 0

    def test_every_swept_grid_is_checked_before_any_bound_count(self, capsys, monkeypatch):
        args = ["converge", "--atom", "Li", "--state", "16s", "--order", "3"]

        def no_solve(*_):
            raise AssertionError("the refusal must come before any solve")

        monkeypatch.setattr(cli, "solve_channel", no_solve)
        # the 600-spline grid alone holds 16 states but too few bound levels
        assert main([*args, "--sweep-splines", "600,600"]) == 1
        assert "exceeds the 15 bound (negative) levels" in capsys.readouterr().err

        def no_count(*_):
            raise AssertionError("the usage error must come before any bound count")

        monkeypatch.setattr(cli, "bound_count", no_count)
        assert main([*args, "--sweep-splines", "600,10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a 10-spline grid holds 8" in captured.err

    def test_single_point_sweep_is_usage_error(self, tmp_path):
        code, _ = run_cli(["converge", "--sweep-splines", "600"], tmp_path)
        assert code == 2

    def test_bad_state_label_is_usage_error(self, tmp_path):
        code, _ = run_cli(["converge", "--sweep-nodes", "10,20", "--state", "s2"],
                          tmp_path)
        assert code == 2

    # the label is read before the atom: an unknown atom is not reported
    @pytest.mark.parametrize(("state", "message"), [
        ("s2", "bad state label 's2' (expected e.g. 2s, 3d)"),
        ("1p", "state '1p' violates nu >= l + 1"),
    ])
    def test_state_label_errors_name_the_label(self, state, message, capsys):
        for atom in ("Li", "Xx"):
            assert main(["converge", "--atom", atom, "--state", state,
                         "--sweep-nodes", "10,20"]) == 2
            assert capsys.readouterr() == ("", f"usage error: {message}\n")

    def test_sweep_ignores_the_unswept_grid(self, capsys):
        # the 600-spline grid of these options is degenerate; the swept ones are not
        assert main(["converge", "--sweep-splines", "40,50", "--rfirst", "0.2", "--rmax", "60",
                     "--order", "4", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == ["40", "50"]

    def test_sweep_builds_only_the_swept_grids(self, capsys, monkeypatch):
        built, workspace = [], bsplines._workspace

        def recording(basis, quad):
            built.append(basis.n_splines)
            return workspace(basis, quad)

        monkeypatch.setattr(bsplines, "_workspace", recording)
        bsplines._grid_workspace.cache_clear()
        assert main(["converge", "--sweep-splines", "60,80", "--order", "6", "--rmax", "60"]) == 0
        assert built == [60, 80]

    @pytest.mark.parametrize("args", [
        ["--sweep-splines", "400,600", "--splines", "5000"],
        ["--sweep-splines", "400,600", "--splines", "10"],
        ["--sweep-nodes", "10,20", "--quad-nodes", "30"],
    ], ids=["splines-5000", "splines-10", "quad-nodes"])
    def test_flag_of_the_swept_option_is_usage_error(self, args, capsys, monkeypatch):
        def no_grid(*_):
            raise AssertionError("the refusal must come before any grid is built")

        monkeypatch.setattr(cli, "build_workspace", no_grid)
        assert main(["converge", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"drop {args[2]}" in captured.err

    @pytest.mark.parametrize(("key", "args"), [
        ("splines = 10", ["--sweep-splines", "60,80", "--order", "6", "--rmax", "60"]),
        ("quad-nodes = 3", ["--sweep-nodes", "10,20", "--splines", "80", "--order", "6",
                            "--rmax", "60"]),
    ], ids=["splines", "quad-nodes"])
    def test_config_value_of_the_swept_option_is_replaced(self, key, args, tmp_path, capsys):
        # one file serves every command, so its value is a default the sweep
        # replaces, even one no grid of this sweep could take
        config = tmp_path / "run.conf"
        config.write_text(key + "\n", encoding="utf-8")
        assert main(["converge", *args, "--format", "csv"]) == 0
        expected = capsys.readouterr().out
        assert main(["converge", *args, "--format", "csv", "--config", str(config)]) == 0
        assert capsys.readouterr().out == expected


class TestConfigFile:
    def test_file_values_apply_and_flags_win(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# comment line\nformat = csv\nsplines = 80  # inline comment\n"
            "order = 6\nrmax = 60\n",
            encoding="utf-8",
        )
        # file value used when no flag given
        code, text = run_cli(
            ["converge", "--sweep-nodes", "10,20", "--config", str(config)],
            tmp_path, "a.csv")
        assert code == 0
        assert text.startswith("quad_nodes,")
        # flag beats file
        code, text = run_cli(
            ["converge", "--sweep-nodes", "10,20", "--config", str(config),
             "--format", "json"],
            tmp_path, "b.json")
        assert code == 0
        json.loads(text)

    def test_defaults_without_config(self):
        parsed = resolve_config(type("Args", (), {"config": None})())
        assert parsed.grid == PAPER_GRID
        assert parsed.units == "paper"

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("spline_count = 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(config)

    def test_empty_config_is_usage_error(self, tmp_path):
        config = tmp_path / "empty.conf"
        config.write_text("# nothing here\n", encoding="utf-8")
        code, _ = run_cli(["table1", "--config", str(config)], tmp_path)
        assert code == 2

    def test_invalid_value_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("splines = many\n", encoding="utf-8")
        code, _ = run_cli(["table1", "--config", str(config)], tmp_path)
        assert code == 2

    def test_keys_for_other_commands_are_validated_then_skipped(self, tmp_path):
        config = tmp_path / "shared.conf"
        config.write_text("model = bare\nmg-mn = 2\n", encoding="utf-8")
        out = tmp_path / "table2.csv"
        assert main(["table2", "--format", "csv", "--config", str(config),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (EXPECTED / "table2.csv").read_bytes()
        config.write_text("model = nonsense\nmg-mn = 2\n", encoding="utf-8")
        code, _ = run_cli(["table2", "--format", "csv", "--config", str(config)], tmp_path)
        assert code == 2

    def test_inconsistent_grid_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("splines = 10\norder = 10\n", encoding="utf-8")
        code, _ = run_cli(["table1", "--config", str(config)], tmp_path)
        assert code == 2


class TestGridConfig:
    """Each grid flag (and config key) sets one GridSpec field; the
    defaults live only in GridSpec."""

    def test_grid_flags_cover_every_grid_spec_field(self):
        grid_fields = [o.grid_field for o in _OPTIONS.values() if o.grid_field is not None]
        assert sorted(grid_fields) == sorted(f.name for f in fields(GridSpec))

    def test_config_file_sets_every_grid_field_and_flags_win(self, tmp_path):
        config = tmp_path / "grid.conf"
        config.write_text(
            "splines = 80\norder = 6\nrmax = 60\nknots = linear\n"
            "rfirst = 0.01\nquad-nodes = 12\nunits = codata\nmodel = bare\n"
            "format = json\nout = rows.json\nmg-mn = 2\n",
            encoding="utf-8",
        )
        args = build_parser().parse_args(
            ["solve", "3", "3", "0", "--config", str(config), "--order", "8"])
        assert resolve_config(args) == RunConfig(
            grid=GridSpec(n_splines=80, order_k=8, r_max=60.0, knot_kind="linear",
                          r_first=0.01, nodes_per_interval=12),
            units="codata", model="bare", format="json", out="rows.json", mg_mn=2,
        )

    def test_resolving_builds_no_grid(self, monkeypatch):
        def no_grid(*_):
            raise AssertionError("a grid is built by the command that solves on it")

        monkeypatch.setattr(cli, "build_workspace", no_grid)
        args = build_parser().parse_args(
            ["table1", "--splines", "80", "--order", "6", "--rmax", "60"])
        assert resolve_config(args).grid == GridSpec(n_splines=80, order_k=6, r_max=60.0)

    def test_paper_grid_passes_the_checks(self):
        assert _checked_grid(PAPER_GRID) is PAPER_GRID

    @pytest.mark.parametrize(("change", "message"), [
        ({"n_splines": 20}, "n_splines must exceed 2 * order_k"),
        ({"r_max": 0.0, "knot_kind": "linear"}, "r_max must be positive"),
        ({"r_max": float("nan")}, "r_max must be finite"),
        ({"r_max": float("inf")}, "r_max must be finite"),
        ({"r_first": 200.0}, "r_first must lie in (0, r_max)"),
        ({"r_max": 1e160}, "r_max 1e+160 too large: r^2 overflows at the last quadrature nodes"),
        ({"r_max": 1e160, "knot_kind": "linear"},
         "r_max 1e+160 too large: r^2 overflows at the last quadrature nodes"),
        ({"nodes_per_interval": 0}, "nodes_per_interval must be >= order_k"),
        ({"nodes_per_interval": 9}, "nodes_per_interval must be >= order_k"),
        ({"order_k": 1}, "order_k must lie in [2, 15]"),
        ({"order_k": 25}, "order_k must lie in [2, 15]"),
    ], ids=["splines", "rmax", "rmax-nan", "rmax-inf", "rfirst", "rmax-square",
            "rmax-square-linear", "quad-nodes", "quad-nodes-below-order", "order",
            "order-past-the-nodes"])
    def test_bad_grid_is_config_error(self, change, message):
        # the builder's own message, which names the GridSpec field
        with pytest.raises(ConfigError) as info:
            _checked_grid(replace(PAPER_GRID, **change))
        assert str(info.value) == message

    @pytest.mark.parametrize("flag", ["splines", "order", "rmax", "rfirst", "quad_nodes"])
    def test_help_states_the_grid_spec_default(self, flag, monkeypatch):
        shifted = GridSpec(n_splines=601, order_k=11, r_max=201.5, r_first=2.5e-4)
        monkeypatch.setattr(cli, "PAPER_GRID", shifted)
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        for command, sub in commands.items():
            help_text = next(a.help for a in sub._actions if a.dest == flag)
            if flag == "quad_nodes":  # unset means the spline order, a rule, not a number
                assert help_text.endswith("(default: the spline order)"), (command, help_text)
                continue
            default = getattr(shifted, _OPTIONS[flag].grid_field)
            assert help_text.endswith(f"(default {default:g})"), (command, help_text)


class TestExitContract:
    def test_unknown_flag_exits_two(self):
        result = run_subprocess(["table1", "--bogus"])
        assert result.returncode == 2

    def test_missing_subcommand_exits_two(self):
        result = run_subprocess([])
        assert result.returncode == 2

    @pytest.mark.parametrize("args", [
        ["solve", "3", "3", "0", "--order", "1"],
        ["solve", "3", "3", "0", "--order", "16"],
        ["converge", "--sweep-nodes", "0,10"],
        ["converge", "--sweep-splines", "10,600"],
        ["converge", "--atom", "Xx", "--sweep-nodes", "10,20"],
        ["solve", "3", "3", "0", "--kstates", "1000"],
        ["solve", "3", "3", "0", "--kstates", "0"],
        ["solve", "3", "3", "0", "--quad-nodes", "3"],
        ["solve", "3", "3", "0", "--knots", "linear", "--rmax", "0"],
        ["solve", "3", "3", "0", "--knots", "linear", "--rmax", "-5"],
        ["solve", "3", "3", "0", "--knots", "linear", "--rmax", "nan"],
        ["solve", "3", "3", "0", "--rmax", "inf"],
        ["solve", "3", "3", "0", "--rmax", "1e400"],
        ["solve", "3", "3", "0", "--knots", "linear", "--rmax", "inf"],
        ["converge", "--state", "700s", "--sweep-nodes", "10,20"],
        ["converge", "--state", "599s", "--sweep-splines", "600,400"],
        ["solve", "3", "3", "0", "--rfirst", "150"],
        ["solve", "3", "3", "0", "--rfirst", "100", "--splines", "30", "--order", "4"],
        ["solve", "3", "3", "1", "--rfirst", "1e-160"],
        ["solve", "3", "3", "0", "--rfirst", "1e-300"],
        # a node whose square underflows to 0.0 gives 0/0 in 1/r^2
        ["solve", "1", "1", "0", "--model", "bare", "--kstates", "1", "--rmax", "1e-320",
         "--knots", "linear"],
        ["solve", "3", "1", "2", "--model", "symmetry", "--kstates", "14", "--splines", "98",
         "--order", "14", "--knots", "exp-linear", "--rmax", "3.830181314456914e-32",
         "--rfirst", "5e-324", "--quad-nodes", "21"],
        ["table3", "--splines", "5", "--order", "2"],
    ], ids=["order-1", "order-16", "sweep-nodes-0", "sweep-splines-10", "unknown-atom",
            "kstates-1000", "kstates-0", "quad-nodes-3", "rmax-0", "rmax-negative", "rmax-nan",
            "rmax-inf", "rmax-overflow", "rmax-inf-linear",
            "converge-state-past-grid", "converge-state-past-smallest-grid",
            "rfirst-degenerate-grid", "rfirst-degenerate-small-grid",
            "rfirst-1e-160-p", "rfirst-1e-300-s", "rmax-1e-320-linear",
            "rfirst-5e-324-order-14", "table3-past-grid"])
    def test_bad_option_values_exit_two(self, args, capsys):
        assert main(args) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(("args", "message"), [
        (["solve", "3", "3", "0", "--kstates", "1000"],
         "1000 states requested, not in [1, 598]: a 600-spline grid holds 598"),
        (["solve", "3", "3", "0", "--kstates", "0"],
         "0 states requested, not in [1, 598]: a 600-spline grid holds 598"),
        (["converge", "--state", "500s", "--sweep-splines", "600,400"],
         "500 states requested, not in [1, 398]: a 400-spline grid holds 398"),
        # table3's deepest row, lithium 4s, is a solve of 4 states
        (["table3", "--splines", "5", "--order", "2"],
         "4 states requested, not in [1, 3]: a 5-spline grid holds 3"),
        (["converge", "--atom", "Li", "--state", "4s", "--sweep-splines", "5,6", "--order", "2"],
         "4 states requested, not in [1, 3]: a 5-spline grid holds 3"),
    ], ids=["solve-kstates-1000", "solve-kstates-0", "converge-500s", "table3-5-splines",
            "converge-Li-4s-5-splines"])
    def test_solve_and_converge_share_the_capacity_message(self, args, message, capsys):
        assert main(args) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["table1", "--model", "bare"],
        ["table2", "--model", "central"],
        ["table2", "--mg-mn", "2"],
        ["table3", "--mg-mn", "2"],
        ["converge", "--sweep-nodes", "10,20", "--units", "codata"],
    ], ids=["table1-model", "table2-model", "table2-mg-mn", "table3-mg-mn", "converge-units"])
    def test_flag_the_command_does_not_take_exits_two(self, args, capsys):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize(("args", "bound"), [
        (["solve", "1", "1", "0", "--model", "bare", "--kstates", "14"], 12),
        (["solve", "3", "3", "0", "--kstates", "40"], 15),
        (["solve", "2", "2", "0", "--model", "central", "--kstates", "30"], 12),
        (["solve", "3", "3", "0", "--kstates", "598"], 15),
        (["converge", "--atom", "Li", "--state", "16s", "--sweep-nodes", "10,20"], 15),
        (["solve", "1", "1", "0", "--model", "bare", "--splines", "5", "--order", "2",
          "--rfirst", "1e-30"], 1),
    ], ids=["bare-H-14", "Li-s-40", "He-central-30", "Li-s-598", "converge-Li-16s",
            "rfirst-1e-30"])
    def test_kstates_past_the_bound_levels_exit_one(self, args, bound, capsys, monkeypatch):
        def no_solve(*_):
            raise AssertionError("the refusal must come before any solve")

        monkeypatch.setattr(cli, "solve_channel", no_solve)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds the {bound} bound (negative) levels" in captured.err

    @pytest.mark.parametrize("rfirst", ["1e-12", "1e-30"])
    def test_tiny_rfirst_builds_its_grid(self, rfirst, capsys):
        # the exp-linear grid's geometric ratio exists for any r_first in
        # (0, r_max), so a tiny r_first gives a steep but valid grid
        assert main(["solve", "1", "1", "0", "--model", "bare", "--splines", "5", "--order", "2",
                     "--rfirst", rfirst, "--kstates", "1", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 1 and float(rows[0].split(",")[1]) < 0

    def test_kstates_up_to_the_bound_levels_solves(self, capsys):
        assert main(["solve", "1", "1", "0", "--model", "bare", "--kstates", "12",
                     "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 12
        assert all(float(row.split(",")[1]) < 0 for row in rows)

    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_empty_output_path_is_usage_error(self, form, tmp_path, capsys, monkeypatch):
        def no_grid(*_):
            raise AssertionError("the refusal must come before any grid is built")

        monkeypatch.setattr(cli, "build_workspace", no_grid)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.conf"
        config.write_text("out =\n", encoding="utf-8")
        extra = ["--out", ""] if form == "flag" else ["--config", str(config)]
        assert main(["table2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out must name a file" in captured.err
        assert list(tmp_path.iterdir()) == [config]

    def test_non_finite_ritz_pencil_falls_back_then_exits_one(self, capsys, monkeypatch):
        # a wide-range draw whose Ritz pencil is not finite: scipy's plain
        # ValueError fails the seeded attempt, the solve is redone from dsbgvx
        # seeds of (H, S), fails the same way and exits 1 in the solver's terms
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "35", "33", "5", "--model", "central", "--kstates", "1",
                         "--splines", "636", "--order", "10", "--knots", "linear",
                         "--rmax", "3.3861089968922215e+135", "--quad-nodes", "29"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: Rayleigh-Ritz step failed: array must not contain"
                                " infs or NaNs\n")
        assert not caught, [str(w.message) for w in caught]
        # the seed pencil's seeds, then the fallback's on the full pencil
        assert len(counting.dimensions) == 2
        assert counting.dimensions[0] < counting.dimensions[1]

    def test_vanishing_inverse_iteration_vector_falls_back_then_exits_one(self, capsys,
                                                                          monkeypatch):
        # a float-edge box where y^T S y underflows to 0.0 in the inverse
        # iteration from helium's closed-form seeds: the seeded attempt fails
        # without a warning, and the fallback's dsbgvx on the full pencil
        # (521 active splines) refuses
        counting = CountingSeeds(eigensolve._sturm_seeds)
        monkeypatch.setattr(eigensolve, "_sturm_seeds", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["table1", "--splines", "523", "--order", "14", "--knots", "linear",
                         "--rmax", "5.656917319894521e-99", "--rfirst", "1.9018280854932836e-262",
                         "--quad-nodes", "20"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: banded eigenvalue bisection failed (dsbgvx info=4, m=0)\n"
        assert not caught, [str(w.message) for w in caught]
        assert counting.dimensions == [521]

    @pytest.mark.parametrize("draws", EXIT_CONTRACT_DRAWS)
    def test_seeded_solve_requests_keep_the_exit_contract(self, draws, capsys):
        for args in solve_requests(**EXIT_CONTRACT_DRAWS[draws]):
            assert_exit_contract(args, capsys)

    @pytest.mark.parametrize("draws", COMMAND_DRAW_SEEDS)
    def test_seeded_converge_and_table_requests_keep_the_exit_contract(self, draws, capsys):
        ranges = {**EXIT_CONTRACT_DRAWS[draws], "seed": COMMAND_DRAW_SEEDS[draws]}
        for args in command_requests(**ranges):
            assert_exit_contract(args, capsys)

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: no state is checked against "
                       "the grid's resolution, so these wrong levels exit 0")
    @pytest.mark.parametrize("args", [
        ["solve", "1", "1", "0", "--model", "bare", "--kstates", "12"],
        ["solve", "1", "1", "0", "--model", "bare", "--kstates", "1", "--splines", "21"],
        ["converge", "--atom", "Li", "--state", "15s", "--sweep-nodes", "10,20"],
        ["solve", "1", "1", "0", "--model", "bare", "--kstates", "1", "--knots", "linear",
         "--rmax", "1e20"],
    ], ids=["bare-H-box-states", "bare-H-21-splines", "converge-Li-15s", "linear-rmax-1e20"])
    def test_unresolved_states_exit_one(self, args, capsys):
        # hydrogen's nu = 10-12 lie 2.4e-4 to 2.4e-3 Ha above -1/(2 nu^2); 1s
        # on 21 splines is -0.484 Ha against -0.5; Li 15s is -0.00182 Ha
        # against -0.00539; and a 1.7e17-bohr first interval puts 1s at
        # -6.4e-17 Ha
        assert main(args) == 1
        assert capsys.readouterr().out == ""

    def test_rfirst_is_ignored_on_linear_knots(self, capsys):
        base = ["solve", "3", "3", "0", "--knots", "linear", "--format", "csv"]
        assert main(base) == 0
        expected = capsys.readouterr().out
        assert main([*base, "--rfirst", "300"]) == 0
        assert capsys.readouterr().out == expected
