"""Command-line interface for table reproduction, single solves and sweeps.

Exit status contract: 0 = success / all gated comparisons pass,
1 = a numerical comparison or solver failure, 2 = usage or config error.

Each option is a flag only on the commands it acts on. Configuration
precedence is flag > config file > default. The config file is line-oriented
``key = value`` with ``#`` comments; its keys are the names of the options
in ``_OPTIONS``, with ``-`` or ``_`` between words. Every key is validated,
then the keys for other commands are skipped, so one file serves them all.
A grid is checked when a command first builds it (``converge`` builds only
the grids it sweeps); a grid the builder refuses is a usage error whose
message names the ``GridSpec`` field. The same check holds the one capacity
rule of ``solve --kstates``, ``converge --state`` and the table commands
(the states of their deepest row): 1 to n_splines - 2 states. Each table
command is declared once, in ``_TABLE_BUILDERS``, and each command declares
its output columns once for one column-driven renderer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .bsplines import PAPER_GRID, GridSpec, build_workspace
from .eigensolve import EigensolverError
from .model import (
    AtomSpec,
    CODATA_UNITS,
    ModelDomainError,
    PAPER_UNITS,
    Pseudopotential,
    UnitSystem,
    atom_catalog,
    catalog_atom,
    effective_charge,
    partition_alpha,
)
from .spectra import (
    HELIUM_TABLE_STATES,
    LITHIUM_TABLE_STATES,
    _quantum_numbers,
    bound_count,
    compare,
    helium_binding_table,
    ionization_table,
    lithium_spectrum,
    reference_records,
    solve_channel,
)

__all__ = ["main", "entry_point", "RunConfig", "ConfigError"]

#: Model-B rows beyond this deviation go to the discrepancy report (eV).
MODEL_B_TOLERANCE = 0.05


class ConfigError(ValueError):
    """Bad config-file contents or inconsistent option values."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved numerical and output options for one CLI invocation."""

    grid: GridSpec = PAPER_GRID
    units: str = "paper"
    model: str = "symmetry"
    format: str = "text"
    out: str | None = None
    mg_mn: int = 3

    def unit_system(self) -> UnitSystem:
        return PAPER_UNITS if self.units == "paper" else CODATA_UNITS

    def pseudopotential(self) -> Pseudopotential:
        return Pseudopotential(self.model)


class _Table(NamedTuple):
    help: str  # the subcommand's help
    table_id: str  # golden table id
    label_key: str  # the row label key
    title: str
    tolerance: float  # model-A gate tolerance (eV)
    build: Callable  # (model, config) -> one model column
    states: tuple  # the (nu, l) of each row's channel state, a solve of nu - l states


#: The table commands by name: the parser, the options and run_table read each here.
_TABLE_BUILDERS = {
    "table1": _Table("reproduce the ionization-potential table", "I", "atom",
                     "ground-state ionization potentials (eV)", 0.01,
                     lambda model, c: ionization_table(model, c.unit_system(), c.grid, c.mg_mn),
                     tuple((atom.valence_nu, atom.valence_l) for atom in atom_catalog())),
    "table2": _Table("reproduce the helium binding-energy table", "II", "state",
                     "helium binding energies (eV)", 0.005,
                     lambda model, c: helium_binding_table(model, c.unit_system(), c.grid),
                     tuple(map(_quantum_numbers, HELIUM_TABLE_STATES))),
    "table3": _Table("reproduce the excited-lithium table", "III", "state",
                     "excited lithium eigenvalues (eV)", 0.002,
                     lambda model, c: lithium_spectrum(model, c.unit_system(), c.grid),
                     tuple(map(_quantum_numbers, LITHIUM_TABLE_STATES))),
}
_TABLES = frozenset(_TABLE_BUILDERS)
#: Model-A gate tolerances per table command (eV).
MODEL_A_TOLERANCES = {name: table.tolerance for name, table in _TABLE_BUILDERS.items()}
_COMMANDS = _TABLES | {"solve", "converge"}


class _Option(NamedTuple):
    type: Callable[[str], object]
    choices: tuple | None
    grid_field: str | None  # the GridSpec field it sets; None for a run option
    help: str  # a grid option's help formats its PAPER_GRID default into any {:g}
    commands: frozenset = _COMMANDS  # the subcommands it acts on


#: Every option of the subcommands, keyed by its RunConfig field (or argparse
#: dest); the flag and config key spell the name with "-".
_OPTIONS = {
    "splines": _Option(int, None, "n_splines", "total B-spline count (default {:g})"),
    "order": _Option(int, None, "order_k", "spline order k (default {:g})"),
    "rmax": _Option(float, None, "r_max", "box radius in bohr (default {:g})"),
    "knots": _Option(str, ("exp-linear", "linear"), "knot_kind", "knot layout"),
    "rfirst": _Option(float, None, "r_first", "first nonzero breakpoint (default {:g})"),
    "quad_nodes": _Option(int, None, "nodes_per_interval",
                          "Gauss-Legendre nodes per interval (default: the spline order)"),
    "units": _Option(str, ("paper", "codata"), None,
                     "eV conversion: paper-compatible or codata", _TABLES | {"solve"}),
    "model": _Option(str, tuple(p.value for p in Pseudopotential), None, "pseudopotential",
                     frozenset({"solve", "converge"})),
    "format": _Option(str, ("text", "csv", "json"), None, "output format"),
    "out": _Option(str, None, None, "write output to this path instead of stdout"),
    "mg_mn": _Option(int, (2, 3), None,
                     "m numerator for Mg (default 3; 2 matches the printed table)",
                     frozenset({"table1", "solve", "converge"})),
}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Parse a ``key = value`` config file into validated field values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        field = key.strip().lower().replace("-", "_")
        option = _OPTIONS.get(field)
        if option is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        try:
            parsed = option.type(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {field}: {exc}") from exc
        if option.choices is not None and parsed not in option.choices:
            raise ConfigError(
                f"{path}:{lineno}: {field} must be one of {option.choices}, got {parsed!r}"
            )
        values[field] = parsed
    if not values:
        raise ConfigError(f"config file {path} contains no settings")
    return values


#: converge's sweep flags (argparse dests) and the option each one sweeps.
_SWEEPS = {"sweep_splines": "splines", "sweep_nodes": "quad_nodes"}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values and flags (flags win). File keys
    that do not act on ``args.command`` are skipped once validated. A swept
    option is refused as a flag; its file value is a default the sweep
    replaces, so it is dropped. An empty output path is refused."""
    merged: dict[str, object] = {}
    if args.config is not None:
        merged.update((field, value) for field, value in parse_config_file(args.config).items()
                      if args.command in _OPTIONS[field].commands)
    for field in _OPTIONS:
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            merged[field] = flag_value
    for sweep, field in _SWEEPS.items():
        if getattr(args, sweep, None) is not None:
            if getattr(args, field) is not None:
                raise ConfigError(f"--{sweep.replace('_', '-')} sets {field}; drop"
                                  f" --{field.replace('_', '-')}")
            merged.pop(field, None)
    if merged.get("out") == "":
        raise ConfigError("out must name a file; omit it to write to stdout")
    grid_values = {o.grid_field: merged.pop(f)
                   for f, o in _OPTIONS.items() if o.grid_field is not None and f in merged}
    return RunConfig(grid=replace(PAPER_GRID, **grid_values), **merged)


def _checked_grid(grid: GridSpec, states: int = 1) -> GridSpec:
    """Build ``grid``, the one check of the grid rules (bsplines), then check
    the one capacity rule: a request of ``states`` states must lie in
    [1, n_splines - 2]. A grid the builder refuses, or a request the grid
    cannot hold, is a usage error."""
    try:
        build_workspace(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    capacity = grid.n_splines - 2
    if not 1 <= states <= capacity:
        raise ConfigError(f"{states} states requested, not in [1, {capacity}]: a"
                          f" {grid.n_splines}-spline grid holds {capacity}")
    return grid


def _add_common_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for field, option in _OPTIONS.items():
        if command not in option.commands:
            continue
        help_text = option.help
        if option.grid_field is not None:
            help_text = help_text.format(getattr(PAPER_GRID, option.grid_field))
        parser.add_argument("--" + field.replace("_", "-"), type=option.type,
                            choices=option.choices, help=help_text)
    parser.add_argument("--config", help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomscreen",
        description="Screened one-electron atomic structure on a B-spline radial grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in _TABLE_BUILDERS.items():
        _add_common_flags(sub.add_parser(name, help=table.help), name)
    p_solve = sub.add_parser("solve", help="solve one (Z, n, l) channel directly")
    p_solve.add_argument("Z", type=int, help="nuclear charge")
    p_solve.add_argument("n_electrons", type=int, help="electron count")
    p_solve.add_argument("l", type=int, help="orbital angular momentum")
    p_solve.add_argument("--kstates", type=int, default=3, help="states to report (default 3)")
    _add_common_flags(p_solve, "solve")
    p_conv = sub.add_parser("converge", help="eigenvalue stability under a sweep")
    sweep = p_conv.add_mutually_exclusive_group(required=True)
    sweep.add_argument("--sweep-splines", dest="sweep_splines",
                       help="comma-separated spline counts, e.g. 400,600,800")
    sweep.add_argument("--sweep-nodes", dest="sweep_nodes",
                       help="comma-separated quadrature node counts, e.g. 10,20")
    p_conv.add_argument("--atom", default="Li", help="catalog atom (default Li)")
    p_conv.add_argument("--state", default="2s", help="state label, e.g. 2s (default 2s)")
    _add_common_flags(p_conv, "converge")
    return parser


def _emit(text: str, config: RunConfig) -> None:
    if config.out is not None:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


class _Column(NamedTuple):
    key: str  # the row key; also the CSV header
    spec: str  # format spec of a cell
    width: str = ""  # text alignment and width of a cell and its header
    header: str | None = None  # text header; None prints the key


def _render(config: RunConfig, rows: list[dict], columns: list[_Column],
            text_columns: list[_Column] | None = None, head=(), foot=(), doc=None) -> str:
    """Render rows as JSON (``doc`` in their place, if given), as CSV, or as
    text (``text_columns`` if given) between the ``head`` and ``foot`` lines.
    A missing key or None prints an empty cell."""
    if config.format == "json":
        return json.dumps(rows if doc is None else doc, indent=2) + "\n"
    csv = config.format == "csv"
    if not csv and text_columns is not None:
        columns = text_columns

    def cell(value, column: _Column) -> str:
        if isinstance(value, bool):
            value = ("true" if value else "false") if csv else ("yes" if value else "NO")
        text = "" if value is None else format(value, column.spec)
        return text if csv else format(text, column.width)

    sep = "," if csv else " "
    header = sep.join(c.key if csv else format(c.header or c.key, c.width) for c in columns)
    body = [sep.join(cell(row.get(c.key), c) for c in columns) for row in rows]
    lines = [header, *body] if csv else [*head, header, *body, *foot]
    return "\n".join(lines) + "\n"


#: A table's columns after its row label, for CSV and then for text, whose order
#: and places differ; text drops its last two (dev_a, ok) when nothing is compared.
_TABLE_COLUMNS = [
    _Column("model_a_ev", ".6f"), _Column("model_b_ev", ".6f"),
    _Column("golden_a", ".3f"), _Column("golden_b", ".3f"), _Column("reference_ev", ".3f"),
    _Column("dev_a", ".6f"), _Column("pass_a", ""), _Column("dev_b", ".6f"),
    _Column("within_b", ""),
]
_TABLE_TEXT_COLUMNS = [
    _Column("model_a_ev", ".4f", ">10", "model_a"), _Column("golden_a", ".3f", ">9"),
    _Column("model_b_ev", ".4f", ">10", "model_b"), _Column("golden_b", ".3f", ">9"),
    _Column("reference_ev", ".3f", ">8", "ref"), _Column("dev_a", ".4f", ">9"),
    _Column("pass_a", "", ">4", "ok"),
]


def run_table(command: str, config: RunConfig) -> tuple[int, str]:
    """Compute both model columns of one table and compare against golden."""
    table = _TABLE_BUILDERS[command]
    _checked_grid(config.grid, max(nu - l for nu, l in table.states))
    rows_a = table.build(Pseudopotential.SYMMETRY_DEPENDENT, config)
    rows_b = table.build(Pseudopotential.CENTRAL_SCREENING, config)

    golden = reference_records(table.table_id)
    compared = config.units == "paper"
    if compared:
        report_a = compare(rows_a, golden, "present1", table.tolerance)
        report_b = compare(rows_b, golden, "present2", MODEL_B_TOLERANCE)
    else:
        report_a = report_b = None

    records = []
    for i, record in enumerate(golden):
        row = {
            table.label_key: record.label,
            "model_a_ev": rows_a[i][1],
            "model_b_ev": rows_b[i][1],
            "golden_a": record.present1_ev,
            "golden_b": record.present2_ev,
            "reference_ev": record.reference_ev,
        }
        if compared:
            row["dev_a"] = report_a.rows[i].deviation
            row["pass_a"] = report_a.rows[i].passed
            row["dev_b"] = report_b.rows[i].deviation
            row["within_b"] = report_b.rows[i].passed
        records.append(row)

    exit_code = 0 if (report_a is None or report_a.all_passed) else 1
    label = _Column(table.label_key, "", "<6")
    text_columns = _TABLE_TEXT_COLUMNS if compared else _TABLE_TEXT_COLUMNS[:-2]
    return exit_code, _render(
        config, records, [label, *_TABLE_COLUMNS], [label, *text_columns],
        head=[f"# {command}: {table.title} [units: {config.unit_system().label}]"],
        foot=_table_report(report_a, report_b))


def _table_report(report_a, report_b) -> list[str]:
    """A table's text footer: model A's gate verdict and model B's discrepancy report."""
    if report_a is None:
        return ["note: golden comparison skipped (golden tables assume paper-compat units)"]
    verdict = "PASS" if report_a.all_passed else "FAIL"
    lines = [f"model A gate: {verdict} (max deviation {report_a.max_deviation:.4f} eV,"
             f" tolerance {report_a.tolerance} eV)"]
    if not report_b.failures:
        return [*lines, f"model B report: all {len(report_b.rows)} rows within"
                        f" {report_b.tolerance} eV"]
    lines.append(f"model B discrepancy report ({len(report_b.failures)} of"
                 f" {len(report_b.rows)} rows beyond {report_b.tolerance} eV):")
    lines += [f"  {row.label}: computed {row.computed:.4f}, printed {row.golden:.3f},"
              f" deviation {row.deviation:.4f}" for row in report_b.failures]
    return [*lines, "  (reported for transparency; the gate applies to model A only, and the",
            "   bundled model-B values carry the unstated numerics of their source)"]


def _resolve_solve_atom(z: int, n_electrons: int, l: int, mg_m: int) -> tuple[AtomSpec, bool]:
    for atom in atom_catalog(mg_m=mg_m):
        if atom.Z == z and atom.n_electrons == n_electrons:
            return atom, True
    adhoc = AtomSpec(
        name=f"Z{z}e{n_electrons}",
        Z=z,
        n_electrons=n_electrons,
        valence_nu=l + 1,
        valence_l=l,
        m_permutations=n_electrons,
    )
    return adhoc, False


def _refuse_box_states(what: str, k: int, atom: AtomSpec, model: Pseudopotential, l: int,
                       grid: GridSpec) -> None:
    """Refuse k states of a channel that holds fewer bound levels on this grid;
    an untrusted (None) count refuses nothing."""
    bound = bound_count(atom, model, l, grid)
    if bound is not None and k > bound:
        raise EigensolverError(
            f"{what} exceeds the {bound} bound (negative) levels of"
            " this channel on this grid; the states above them are box states"
        )


def run_solve(args: argparse.Namespace, config: RunConfig) -> tuple[int, str]:
    _checked_grid(config.grid, args.kstates)
    if args.Z < 1 or args.n_electrons < 1 or args.l < 0:
        raise ConfigError("solve requires Z >= 1, n_electrons >= 1, l >= 0")
    model = config.pseudopotential()
    units = config.unit_system()
    atom, in_catalog = _resolve_solve_atom(args.Z, args.n_electrons, args.l, config.mg_mn)
    _refuse_box_states(f"kstates {args.kstates}", args.kstates, atom, model, args.l,
                       config.grid)
    states = solve_channel(atom, model, args.l, args.kstates, config.grid)

    meta = {
        "Z": args.Z,
        "n_electrons": args.n_electrons,
        "l": args.l,
        "model": config.model,
        "m_over_n": f"{atom.m_permutations}/{atom.n_electrons}",
        "catalog_atom": atom.name if in_catalog else None,
    }
    if model is Pseudopotential.SYMMETRY_DEPENDENT and args.n_electrons >= 2:
        meta["alpha"] = partition_alpha(args.l, args.n_electrons)
        meta["z_eff"] = effective_charge(args.Z, args.n_electrons, args.l)
    rows = [
        {
            "nu": s.nu,
            "raw_hartree": s.raw_energy,
            "scaled_hartree": s.scaled_energy,
            "scaled_ev": units.to_ev(s.scaled_energy),
        }
        for s in states
    ]

    head = [f"# solve Z={args.Z} n={args.n_electrons} l={args.l}"
            f" model={config.model} units={units.label}"]
    if not in_catalog:
        head.append("# not a catalog atom: m/n defaulted to 1")
    head.append(f"# m/n = {meta['m_over_n']}")
    if "z_eff" in meta:
        head.append(f"# alpha = {meta['alpha']:.9f}, Z_eff = {meta['z_eff']:.9f}")
    columns = [_Column("nu", "", "<4"), _Column("raw_hartree", ".12f", ">18"),
               _Column("scaled_hartree", ".12f", ">18"), _Column("scaled_ev", ".6f", ">14")]
    return 0, _render(config, rows, columns, head=head, doc={"meta": meta, "states": rows})


def _parse_sweep(text: str, what: str) -> list[int]:
    try:
        points = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} sweep: {exc}") from exc
    if len(points) < 2:
        raise ConfigError(f"{what} sweep needs at least two points")
    return points


def run_converge(args: argparse.Namespace, config: RunConfig) -> tuple[int, str]:
    try:
        nu, l = _quantum_numbers(args.state)
        atom = catalog_atom(args.atom, mg_m=config.mg_mn)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = config.pseudopotential()
    sweep = "sweep_splines" if args.sweep_splines is not None else "sweep_nodes"
    sweep_name = _SWEEPS[sweep]
    points = _parse_sweep(getattr(args, sweep), sweep_name)
    field = _OPTIONS[sweep_name].grid_field
    grids = [_checked_grid(replace(config.grid, **{field: p}), nu - l) for p in points]
    for point, grid in zip(points, grids):
        _refuse_box_states(f"state {args.state!r} at {sweep_name} = {point}", nu - l,
                           atom, model, l, grid)

    rows = []
    previous = None
    for point, grid in zip(points, grids):
        value = solve_channel(atom, model, l, nu - l, grid)[-1].raw_energy
        delta = None if previous is None else abs(value - previous)
        rows.append({sweep_name: point, "eigenvalue_hartree": value, "delta_hartree": delta})
        previous = value

    columns = [_Column(sweep_name, "", "<12"), _Column("eigenvalue_hartree", ".15f", ">22"),
               _Column("delta_hartree", ".3e", ">12", "|delta|")]
    head = [f"# converge atom={atom.name} state={args.state} model={config.model}"
            f" sweep={sweep_name}"]
    return 0, _render(config, rows, columns, head=head)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command in _TABLE_BUILDERS:
            code, text = run_table(args.command, config)
        elif args.command == "solve":
            code, text = run_solve(args, config)
        else:
            code, text = run_converge(args, config)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ModelDomainError, EigensolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, config)
    except OSError as exc:
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
