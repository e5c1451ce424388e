"""Benchmark of atomscreen: cold paper tables and a warm channel scan.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from its ``src``.
Each operation runs in a fresh worker or CLI process, one at a time, so the
benchmark never runs more than one solver process at once.

Workloads (an operation in brackets):

  paper-tables  [one round: cold ``python -m atomscreen tableN --format csv``
                for table1, table2 and table3, in an order the seed shuffles]
                every command's CSV must match perfbench/expected byte for
                byte, and each command counts as one attempted operation.
  channel-scan  [one solve_channel request] a warm in-process stream of
                distinct (model, Z, n, l, k) channels on the paper grid,
                drawn from the seed among those whose states fit the box
                (workloads.fits_box); states must be bound and, for the
                symmetry and bare models, on the Coulomb oracle.

End-to-end metrics, printed with ``--trace 0`` on every workload:

  setup_s      median of 15 set-ups, each a fresh process timing its own
               ``import atomscreen.cli`` plus building the paper-grid
               workspace; half are taken before the operations and half
               after them (on channel-scan one of the fifteen is the worker's
               own set-up before its first channel)
  op_p50_ms    median wall time of one operation
  ops_per_s    operations per second spent in operations (1 / mean)
  peak_rss_mb  largest peak resident set of a process running an operation

The report above the JSON line also gives each workload's own figures:
table1_s/table2_s/table3_s, channel_p50_ms/channel_p90_ms/channels_per_s,
and failed_share with its base.

With ``--trace 1`` the workload runs untraced for ``--seconds``, then the
same operations run again in processes traced by spans.py. The per-layer
metrics come from the traced pass and are per operation (per import for
``import.*``). ``import.scipy_special_ms`` comes from one extra set-up run
under ``python -X importtime``; no other process runs under it.
``trace.overhead_ms`` is traced minus untraced wall time per operation; on
paper-tables that includes the worker harness (its own imports and the
dump of the spans), since the untraced commands run ``python -m
atomscreen``. Raw samples and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = str(Path(__file__).resolve().parent / "worker.py")
OUT = Path(__file__).resolve().parent / "out"
PY = sys.executable
#: Set-up samples of a run, taken this many before and after its operations.
SETUP_BEFORE, SETUP_AFTER = 7, 8
#: Every run ends within this many seconds of its start, or fails.
RUN_BUDGET_S = 175.0
WORKLOADS = ("paper-tables", "channel-scan")


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float

    def json(self) -> dict:
        if self.returncode != 0:
            raise RuntimeError(f"worker exited {self.returncode}: {self.stderr.decode()[-2000:]}")
        return json.loads(self.stdout)


@dataclass
class Result:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str, str]] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def add(self, reason: str | None, context: object = "") -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{context} {reason}".strip())

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append((name, value, unit, note))


class Runner:
    """Starts one child process at a time inside the run's time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.blas_threads: dict[str, int] = {}

    def run(self, argv: list[str]) -> Child:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("run budget exhausted")
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024.0)

    def worker(self, *args, importtime: bool = False) -> tuple[Child, dict]:
        flags = ["-X", "importtime"] if importtime else []
        child = self.run([PY, *flags, WORKER, *map(str, args)])
        return child, child.json()

    def probe(self, importtime: bool = False) -> tuple[Child, dict]:
        child, doc = self.worker("probe", importtime=importtime)
        self.blas_threads = doc["blas_threads"]
        return child, doc

    def setup_samples(self, count: int) -> list[float]:
        return [self.probe()[1]["setup_s"] for _ in range(count)]


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def scipy_special_ms(stderr: bytes) -> float:
    """Cumulative ``scipy.special`` import time from ``-X importtime`` output."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.special":
            return int(parts[1]) / 1e3
    return 0.0


def end_to_end(result: Result, setup: list[float], op_s: list[float], rss_mb: float) -> None:
    result.metrics.update(
        setup_s=statistics.median(setup),
        op_p50_ms=1e3 * statistics.median(op_s),
        ops_per_s=len(op_s) / sum(op_s),
        peak_rss_mb=rss_mb,
    )
    result.show("setup_s", statistics.median(setup), "s", f"median of {len(setup)}")
    result.record.update(setup_s=setup, op_s=op_s)


def per_layer(result: Result, runner: Runner, traced_spans: list[list], ops: int,
              import_s: list[float], traced_s: float, untraced_s: float) -> None:
    result.metrics.update(spans.summarize(traced_spans, ops))
    result.metrics["import.atomscreen_cli_ms"] = 1e3 * statistics.fmean(import_s)
    result.metrics["import.scipy_special_ms"] = scipy_special_ms(
        runner.probe(importtime=True)[0].stderr)
    result.metrics["trace.ops"] = float(ops)
    result.metrics["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s) / ops
    result.metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    result.record["spans"] = traced_spans


def paper_tables(runner: Runner, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup = [] if trace else runner.setup_samples(SETUP_BEFORE)
    order, walls, rss, outputs = [], [], [], []
    shuffled = workloads.table_rounds(seed)
    started = time.perf_counter()
    while not order or time.perf_counter() - started < seconds:
        for command in next(shuffled):
            child = runner.run([PY, "-m", "atomscreen", command, "--format", "csv"])
            result.add(workloads.check_table(command, child.returncode, child.stdout))
            order.append(command)
            walls.append(child.wall_s)
            rss.append(child.maxrss_mb)
            outputs.append(child.stdout)
    result.record["order"] = order
    width = len(workloads.TABLES)
    round_s = [sum(walls[i:i + width]) for i in range(0, len(walls), width)]
    if not trace:
        setup += runner.setup_samples(SETUP_AFTER)
        end_to_end(result, setup, round_s, max(rss))
        for command in workloads.TABLES:
            own = [w for c, w in zip(order, walls) if c == command]
            result.show(f"{command}_s", statistics.median(own), "s", f"median of {len(own)}")
    else:
        traced, import_s, traced_walls = [], [], []
        for command, untraced_out in zip(order, outputs):
            child, doc = runner.worker("cli", command, "--format", "csv")
            stdout = doc["stdout"].encode()
            reason = workloads.check_table(command, doc["returncode"], stdout)
            if reason is None and stdout != untraced_out:
                reason = f"{command} output differs from the untraced run"
            result.add(reason, "traced")
            traced.append(doc["spans"])
            import_s.append(doc["import_s"])
            traced_walls.append(child.wall_s)
        merged = spans.merge(traced)
        per_layer(result, runner, merged, len(round_s), import_s, sum(traced_walls), sum(walls))
        for command in workloads.TABLES:
            picks = [i for i, c in enumerate(order) if c == command]
            layers = spans.summarize(spans.merge([traced[i] for i in picks]), len(picks))
            solver = (layers["bsplines.self_ms"] + layers["operators.self_ms"]
                      + layers["eigensolve.solve_lowest_ms"])
            rest = 1e3 * (statistics.median([walls[i] for i in picks])
                          - statistics.fmean(import_s[i] for i in picks))
            result.show(f"{command}.solver_share", solver / rest, "ratio",
                        f"bsplines+operators+eigensolve {solver:.0f} ms of"
                        f" {rest:.0f} ms untraced wall after import")
    result.show("peak_rss_mb", max(rss), "MB", f"max of {len(rss)} processes")
    return result


def channel_scan(runner: Runner, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup = [] if trace else runner.setup_samples(SETUP_BEFORE)
    child, doc = runner.worker("channels", "--seed", seed, "--seconds", seconds)
    runs = doc["results"]
    for run in runs:
        result.add(workloads.check_channel(run["request"], run), run["request"])
    latency = [run["seconds"] for run in runs]
    result.record["results"] = runs
    if not trace:
        setup += [doc["setup_s"]] + runner.setup_samples(SETUP_AFTER - 1)
        end_to_end(result, setup, latency, child.maxrss_mb)
        count = f"n={len(latency)}"
        result.show("channel_p50_ms", 1e3 * statistics.median(latency), "ms", count)
        result.show("channel_p90_ms", 1e3 * p90(latency), "ms", count)
        result.show("channels_per_s", len(latency) / sum(latency), "1/s", count)
    else:
        _, traced_doc = runner.worker("channels", "--seed", seed, "--count", len(runs), "--trace")
        for run, again in zip(runs, traced_doc["results"]):
            reason = workloads.check_channel(again["request"], again)
            if reason is None and (again["request"], again["status"], again["states"]) != (
                    run["request"], run["status"], run["states"]):
                reason = "output differs from the untraced run"
            result.add(reason, f"traced {again['request']}")
        per_layer(result, runner, traced_doc["spans"], len(runs), [traced_doc["import_s"]],
                  sum(r["seconds"] for r in traced_doc["results"]), sum(latency))
    result.show("peak_rss_mb", child.maxrss_mb, "MB", "channel worker")
    return result


RUNNERS = {"paper-tables": paper_tables, "channel-scan": channel_scan}


def run_workload(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    runner = Runner()
    runner.probe()  # untimed: compiles bytecode, fails fast without src/
    result = RUNNERS[name](runner, seed, seconds, trace)
    expected = [m["name"] for m in config["per_layer" if trace else "end_to_end"]]
    if sorted(result.metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(result.metrics)} differ from {sorted(expected)}")
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    failed = len(result.failures)
    result.show("failed_share", failed / result.attempted, "ratio",
                f"{failed} failed of {result.attempted} attempted")
    machine = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": runner.blas_threads,
        "python": platform.python_version(),
    }
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"machine {json.dumps(machine)}")
    for metric, value, unit, note in result.report:
        print(f"  {metric:<36} {value:>14.6g} {unit:<6} {note}")
    print("  metrics of the JSON line:")
    for metric, value in result.metrics.items():
        print(f"  {metric:<36} {value:>14.6g} {units[metric]}")
    for reason in result.failures[:20]:
        print(f"  failed: {reason}")
    line = {
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }
    record = dict(workload=name, seed=seed, seconds=seconds, trace=trace, machine=machine,
                  failures=result.failures, result=line, **result.record)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "atomscreen" / "__init__.py").is_file():
        print(f"no atomscreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks use atomscreen.model
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), config)
             for name in names}
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
