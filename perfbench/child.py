"""Child processes of the benchmark (run.py launches them; PYTHONPATH names src/).

    python3 child.py setup CONFIG MODE N:H:K [N:H:K ...]
        Imports the package, parses CONFIG and builds the initial state of
        every (n, h, k) given, then prints time.monotonic().  The parent
        subtracts its own clock reading at launch to get the set-up time.

    python3 child.py trace SPANS_JSON CLI_ARGS...
        Runs sirb_lattice.cli.main(CLI_ARGS) in this process with timing
        wrappers around each layer's public entry points, and writes the
        spans to SPANS_JSON.  Each wrapper is installed where the program
        looks the name up (cli.simulate_ssa, diagnostics.simulate_ssa, ...)
        before any pool forks, and spans recorded in pool workers travel back
        with each task's result, so worker time is not lost.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


class Tracer:
    """Spans kept in memory: name, start, end, index of the enclosing span,
    and counts recorded at the same boundary."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def begin(self, name: str, **counts) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None, **counts}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict):
        span["end"] = time.perf_counter()
        self.stack.remove(self.spans.index(span))

    def adopt(self, spans: list[dict]):
        """Append spans recorded in another process, keeping their nesting."""
        base = len(self.spans)
        for span in spans:
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)


TRACER = Tracer()
_installed = False


def _wrap(owner, attr: str, name: str, counts=None, prepare=None):
    """Replace owner.attr by a version that records a span around each call.
    ``prepare(kwargs)`` may add keyword arguments before the call;
    ``counts(args, kwargs, result)`` adds counts to the span after it."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if prepare is not None:
            prepare(kwargs)
        span = TRACER.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end(span)
        if counts is not None:
            span.update(counts(args, kwargs, result))
        return result

    setattr(owner, attr, traced)


def _simulated(args, kwargs, traj):
    return {"events": int(traj.stats.get("n_events", 0))}


def _swept(args, kwargs, result):
    trajs = args[0] if isinstance(args[0], (list, tuple)) else [args[0]]
    return {"events": sum(len(t.event_log) for t in trajs)}


def _written(args, kwargs, result):
    path = Path(args[0])
    files = [p for p in path.iterdir() if p.is_file()] if path.is_dir() else [path]
    return {"bytes": sum(p.stat().st_size for p in files)}


def _give_stats(kwargs):
    """integrate() counts its RK4 steps into a ``stats`` dict when given one."""
    if kwargs.get("stats") is None:
        kwargs["stats"] = {}


def _stepped(args, kwargs, result):
    return {"steps": int(kwargs["stats"].get("n_steps", 0))}


class TracedPool(ProcessPoolExecutor):
    """A process pool whose lifetime is one span.  Counts the pickled bytes of
    every task's arguments and result, and collects the workers' spans."""

    def __init__(self, max_workers=None, *args, **kwargs):
        self._span = TRACER.begin("cli.pool", workers=max_workers or os.cpu_count(),
                                  payload_bytes=0)
        super().__init__(max_workers, *args, **kwargs)

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        items = list(zip(*iterables))
        self._span["payload_bytes"] += sum(len(pickle.dumps(item)) for item in items)
        results = super().map(_in_worker, [fn] * len(items), items,
                              timeout=timeout, chunksize=chunksize)

        def unpack():
            for result, spans, result_bytes in results:
                self._span["payload_bytes"] += result_bytes
                TRACER.adopt(spans)
                yield result

        return unpack()

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        if self._span["end"] is None:
            TRACER.end(self._span)


def _in_worker(fn, item):
    install()  # a no-op under fork, where the parent's wrappers are inherited
    TRACER.reset()
    span = TRACER.begin("cli.worker")
    result = fn(*item)
    TRACER.end(span)
    return result, TRACER.spans, len(pickle.dumps(result))


def install():
    global _installed
    if _installed:
        return
    from sirb_lattice import cli, diagnostics, io

    for owner in (cli, diagnostics):
        _wrap(owner, "simulate_ssa", "stochastic", _simulated)
        _wrap(owner, "integrate", "deterministic.integrate", _stepped, _give_stats)
        if hasattr(owner, "ProcessPoolExecutor"):
            owner.ProcessPoolExecutor = TracedPool
    for attr in ("martingale_residual", "compensator_check"):
        _wrap(cli, attr, "diagnostics.sweep", _swept)
    _wrap(diagnostics, "sup_distance", "diagnostics.sup_distance")
    for attr in ("write_trajectory", "write_convergence_report",
                 "write_martingale_csv", "write_compensator_csv"):
        _wrap(io, attr, "io.write", _written)
    _installed = True


def trace(spans_path: str, argv: list[str]) -> int:
    install()
    from sirb_lattice import cli

    root = TRACER.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        TRACER.end(root)
        Path(spans_path).write_text(json.dumps(TRACER.spans))


def setup(config: str, mode: str, rungs: list[str]) -> int:
    from sirb_lattice.cli import parse_config
    from sirb_lattice.deterministic import DeterministicState
    from sirb_lattice.stochastic import ScalingParams, SystemState

    cfg = parse_config(config, mode=mode)
    for rung in rungs:
        n, h, k = map(int, rung.split(":"))
        v0 = DeterministicState.from_functions(cfg.initial_fns(), n)
        SystemState.from_densities(v0.s, v0.i, v0.r, v0.b, scaling=ScalingParams(n, h, k))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "setup":
        sys.exit(setup(rest[0], rest[1], rest[2:]))
    if command == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    sys.exit(f"unknown command {command!r}")
