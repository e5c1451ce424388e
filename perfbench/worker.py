"""Benchmark worker: one fresh Python process that drives atomscreen.

Run by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``; it
prints one JSON document on stdout. Modes:

  probe                    time ``import atomscreen.cli`` and building the
                           paper-grid workspace in this fresh process, and
                           read the BLAS thread counts
  channels --seed N ...    stream distinct solve_channel requests, warm
  cli ARGS...              run ``atomscreen.cli.main(ARGS)`` in-process, traced

``channels`` runs until ``--seconds`` have passed, or exactly ``--count``
channels when that is given. ``--trace`` records layer spans (see spans.py);
``cli`` always does.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import sys
import time
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
#: A channel-scan run solves at least this many channels, however short.
MIN_CHANNELS = 100


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    threads = {}
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return threads
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads[Path(path).name] = getter()
                break
    return threads


def import_cli():
    """Import atomscreen.cli from the checkout; returns (module, seconds)."""
    started = time.perf_counter()
    import atomscreen.cli as cli

    elapsed = time.perf_counter() - started
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"atomscreen imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def build_paper_workspace() -> float:
    from atomscreen.bsplines import PAPER_GRID, build_workspace

    started = time.perf_counter()
    build_workspace(PAPER_GRID)
    return time.perf_counter() - started


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Call ``cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def keep_going(done: int, started: float, args) -> bool:
    if args.count is not None:
        return done < args.count
    return done < MIN_CHANNELS or time.perf_counter() - started < args.seconds


def run_channels(args, tracer) -> dict:
    cli, import_s = import_cli()
    setup_s = import_s + build_paper_workspace()
    from atomscreen import model, spectra
    from atomscreen.eigensolve import EigensolverError

    if tracer is not None:
        spans.install(tracer)
    results = []
    requests = workloads.channel_requests(args.seed)
    started = time.perf_counter()
    while keep_going(len(results), started, args):
        request = next(requests)
        # the atom ``atomscreen solve Z N L`` uses, at the default --mg-mn 3
        atom = cli._resolve_solve_atom(request["Z"], request["n"], request["l"], 3)[0]
        pseudo = model.Pseudopotential(request["model"])
        result = {"request": request, "status": "ok", "states": []}
        with tracer.operation() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                states = spectra.solve_channel(atom, pseudo, request["l"], request["k"])
            except (EigensolverError, ValueError) as exc:
                result.update(status="refused", error=f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # any other exception is a failed operation
                result.update(status="error", error=f"{type(exc).__name__}: {exc}")
            else:
                result["states"] = [[s.nu, s.raw_energy] for s in states]
            result["seconds"] = time.perf_counter() - t0
        results.append(result)
    return {"setup_s": setup_s, "import_s": import_s, "results": results}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe")
    channels = sub.add_parser("channels")
    channels.add_argument("--seed", type=int, required=True)
    channels.add_argument("--seconds", type=float, default=0.0)
    channels.add_argument("--count", type=int)
    channels.add_argument("--trace", action="store_true")
    cli_mode = sub.add_parser("cli")
    cli_mode.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.mode == "probe":
        _, import_s = import_cli()
        setup_s = import_s + build_paper_workspace()
        doc = {"setup_s": setup_s, "import_s": import_s, "blas_threads": blas_threads()}
    elif args.mode == "cli":
        cli, import_s = import_cli()
        tracer = spans.Tracer()
        spans.install(tracer)
        with tracer.operation():
            code, out, err = run_cli(cli, args.argv)
        doc = {"import_s": import_s, "returncode": code, "stdout": out, "stderr": err,
               "spans": tracer.spans}
    else:
        tracer = spans.Tracer() if args.trace else None
        doc = run_channels(args, tracer)
        if tracer is not None:
            doc["spans"] = tracer.spans
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
