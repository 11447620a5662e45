"""Per-layer timings of sirb-lattice, written to BENCH_<label>.json.

Usage, from the root of a checkout:

    python bench/bench.py --label change

It times the package in this checkout's ``src`` and adds one run to
``BENCH_<label>.json`` (delete the file to start afresh).  Each run records:

* the machine (CPU model, core count, Python, numpy) and the git SHA;
* the exact simulator, in µs per event, at the three baseline configs
  (n = 8, H = K = 10^3; n = 8, H = 10^3, K = 10^5; n = 64, H = K = 10^3),
  at n = 32 with H = K = 10^3 and at the shape of the benchmark's roundtrip
  workload (n = 256, H = K = 10^3, T = 0.1, with quickstart's hop rate,
  event log recorded);
* the simulator's two representations of its site totals, Python lists
  and numpy arrays, each forced in turn through ``stochastic._LIST_SITES``
  at n = 8, 16, 32, 48 and 64 with H = K = 10^3, the two taking turns
  within each repeat, in µs per event (the figures that set ``_LIST_SITES``;
  left out for a checkout without it);
* the event-log sweep (``sweep_log``) at n = 8 and n = 64 and the replay
  (``io.replay_trajectory``) at n = 8, in µs per event, with H = K = 10^3;
* the run-directory I/O, ``io.write_trajectory`` then ``io.read_trajectory``
  of one logged run at n = 256, H = K = 10^3, T = 0.1, with quickstart's
  hop rate (the shape of the benchmark's roundtrip workload, about 3.6 * 10^4
  events), in µs per run directory;
* the RK4 lattice integrator, in µs per step, at n = 8, 64 and 256;
* the five subcommands end to end, each a ``python -m sirb_lattice`` process
  with ``--workers 1`` and a temporary ``--out``: ``simulate``, ``pde``,
  ``homogeneous`` and ``diagnose`` on ``demos/configs/quickstart.cfg``, and
  ``converge`` on ``demos/configs/converge.cfg`` with ``--replicas 2``, in ms
  per run, as wall time and as the process's CPU time (the
  ``resource.getrusage(RUSAGE_CHILDREN)`` difference across the run, pool
  workers included);
* the process-pool orchestration: ``simulate`` and ``diagnose`` on
  ``demos/configs/quickstart.cfg`` with ``--replicas 2``, at ``--workers 1``
  and at ``--workers 2``, the two taking turns within each repeat, timed as
  the subcommands are (left out, with a line saying so, where fewer than 2
  CPUs are usable);
* the footprint: the peak resident memory, in MiB, of ``pde`` on
  ``demos/configs/quickstart.cfg`` at ``--workers 1`` and of each process-pool
  run above at each of its worker counts (``--workers 2`` left out where
  fewer than 2 CPUs are usable).  Each is the ``ru_maxrss`` of the process
  tree, pool workers included, that ``os.wait4`` returns to a ``python -I
  -S`` stub which forks and execs the subcommand (``FOOTPRINT_STUB``): a
  process started from this script itself would carry this script's own
  high-water mark, tens of MiB, across its exec.  These runs are not timed,
  so the stub's start-up enters neither the subcommand nor the pool figures.

Every figure is the median of ``REPEATS`` timed repeats of the same seeded
work, with the minimum, the maximum and every repeat.  Every layer but the
subcommands is timed in CPU time of this process (``time.process_time``),
which other load on the machine disturbs less than the wall clock.  The
file's ``summary`` gives, per figure, the median and quartiles of the runs'
medians and the median of the runs' minimums, so runs of two checkouts
taken in turn (parent, change, change, parent, ...) compare as pairs on the
same machine state.  The model is
``demos/configs/quickstart.cfg``: its rates, its initial profiles and its
transport rebuilt for each lattice size.  Runs at n <= 16 span the horizon
T = 1 and runs at n >= 32 T = 0.1, about 10^4 to 3 * 10^5 events each.
Uses only the standard library and numpy; BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sirb_lattice import io as run_io  # noqa: E402
from sirb_lattice import stochastic  # noqa: E402
from sirb_lattice.deterministic import (  # noqa: E402
    DeterministicState,
    ReactionField,
    auto_dt,
    integrate,
)
from sirb_lattice.diagnostics import sweep_log, usable_cpus  # noqa: E402
from sirb_lattice.lattice import TransportCoefficients  # noqa: E402
from sirb_lattice.stochastic import (  # noqa: E402
    EpidemicParams,
    ScalingParams,
    SystemState,
    simulate_ssa,
)

SEED = 20261018
# timed repeats per figure in one run
REPEATS = 7
# RK4 steps per timed integration
RK4_STEPS = 400
# (n, H, K, logged); a logged run keeps quickstart's hop rate, as the
# roundtrip workload's does
SSA_CONFIGS = ((8, 1000, 1000, False), (8, 1000, 100_000, False), (32, 1000, 1000, False),
               (64, 1000, 1000, False), (256, 1000, 1000, True))
PATH_SIZES = (8, 16, 32, 48, 64)
SWEEP_SIZES = (8, 64)
REPLAY_SIZE = 8
IO_SIZE = 256
RK4_SIZES = (8, 64, 256)
# subcommand and its arguments, run with --workers 1 and a fresh --out
CLI_RUNS = (
    ("simulate", "--config", "demos/configs/quickstart.cfg"),
    ("pde", "--config", "demos/configs/quickstart.cfg"),
    ("homogeneous", "--config", "demos/configs/quickstart.cfg"),
    ("diagnose", "--config", "demos/configs/quickstart.cfg"),
    ("converge", "--config", "demos/configs/converge.cfg", "--replicas", "2"),
)
# subcommand and its arguments, run at each of POOL_WORKERS with a fresh --out
POOL_RUNS = (
    ("simulate", "--config", "demos/configs/quickstart.cfg", "--replicas", "2"),
    ("diagnose", "--config", "demos/configs/quickstart.cfg", "--replicas", "2"),
)
POOL_WORKERS = (1, 2)
# subcommand and its arguments, and its --workers, each run with a fresh --out
FOOTPRINT_RUNS = ((CLI_RUNS[1], 1),) + tuple((args, w) for args in POOL_RUNS
                                             for w in POOL_WORKERS)
# Run as ``python -I -S -c FOOTPRINT_STUB ARGV...``: forks, execs ARGV with
# its stdout on /dev/null, and prints the peak RSS of its process tree in KiB.
FOOTPRINT_STUB = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""
LAYERS = ("ssa", "paths", "sweep", "replay", "io", "rk4", "cli", "pool", "footprint")


def horizon(n: int) -> float:
    """Simulated time of a run on n sites: the event count grows with n, and
    every run fires at least 10^4 events."""
    return 1.0 if n <= 16 else 0.1


def grid(n: int) -> np.ndarray:
    return np.linspace(0.0, horizon(n), 21)


def model(n: int, continuum: bool = True) -> tuple[EpidemicParams, DeterministicState]:
    """Quickstart rates and initial profiles on an n-site lattice.  The
    transport keeps quickstart's continuum limit or, with ``continuum`` off,
    its hop rate and bias, as the benchmark's configs do."""
    params = EpidemicParams(
        mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2, p_over_w=0.8, mu_b=0.5,
        transport=TransportCoefficients(0.5, 0.7, 8 if continuum else n),
    ).with_lattice(n)
    x = (np.arange(n) + 0.5) / n
    v0 = DeterministicState(
        0.9 + 0.05 * np.sin(2 * np.pi * x), np.full(n, 0.1), np.zeros(n), np.full(n, 0.5),
    )
    return params, v0


def initial_counts(v0: DeterministicState, scaling: ScalingParams) -> SystemState:
    return SystemState.from_densities(v0.s, v0.i, v0.r, v0.b, scaling=scaling)


def timed(run, units: int, unit: str) -> dict:
    """Median, min and max over ``REPEATS`` calls of ``run``, in CPU time per
    unit of work."""
    runs = []
    for _ in range(REPEATS):
        start = time.process_time()
        run()
        runs.append((time.process_time() - start) / units * 1e6)
    return figure(runs, units, unit)


def figure(runs: list, units: int, unit: str) -> dict:
    return {
        "unit": unit, "median": statistics.median(runs), "min": min(runs),
        "max": max(runs), "runs": runs, "work": units,
    }


def bench_ssa(n: int, h: int, k: int, logged: bool) -> dict:
    params, v0 = model(n, continuum=not logged)
    scaling = ScalingParams(n, h, k)
    state = initial_counts(v0, scaling)

    def run():
        return simulate_ssa(state, horizon(n), grid(n), params, scaling, SEED,
                            record_events=logged)

    events = run().stats["n_events"]
    return timed(run, events, "us/event")


def bench_paths(n: int) -> dict:
    """The simulator on n sites, H = K = 10^3, with its site totals in
    lists and in arrays: ``_LIST_SITES`` set to n, then to 0 (the order
    alternating between repeats)."""
    params, v0 = model(n)
    scaling = ScalingParams(n, 1000, 1000)
    state = initial_counts(v0, scaling)

    def run():
        return simulate_ssa(state, horizon(n), grid(n), params, scaling, SEED)

    events = run().stats["n_events"]
    runs: dict = {"lists": [], "arrays": []}
    default = stochastic._LIST_SITES
    try:
        for rep in range(REPEATS):
            for path in ("lists", "arrays") if rep % 2 == 0 else ("arrays", "lists"):
                stochastic._LIST_SITES = n if path == "lists" else 0
                start = time.process_time()
                run()
                runs[path].append((time.process_time() - start) / events * 1e6)
    finally:
        stochastic._LIST_SITES = default
    return {f"n={n},{path}": figure(r, events, "us/event") for path, r in runs.items()}


def logged_run(n: int, continuum: bool = True):
    params, v0 = model(n, continuum)
    scaling = ScalingParams(n, 1000, 1000)
    state = initial_counts(v0, scaling)
    traj = simulate_ssa(state, horizon(n), grid(n), params, scaling, SEED,
                        record_events=True)
    return traj, params, scaling, state


def bench_sweep(n: int) -> dict:
    traj, params, scaling, _ = logged_run(n)
    return timed(lambda: sweep_log(traj, params, scaling), len(traj.event_log), "us/event")


def bench_replay(n: int) -> dict:
    traj, _, _, state = logged_run(n)
    return timed(lambda: run_io.replay_trajectory(state, traj.event_log, grid(n)),
                 len(traj.event_log), "us/event")


def bench_io(n: int) -> dict:
    traj, params, scaling, _ = logged_run(n, continuum=False)
    with tempfile.TemporaryDirectory() as tmp:
        def run():
            run_io.write_trajectory(tmp, traj, params, scaling)
            return run_io.read_trajectory(tmp)

        return timed(run, 1, "us/run")


def bench_rk4(n: int) -> dict:
    params, v0 = model(n)
    rf = ReactionField(params, hk_ratio=1.0)
    dt = auto_dt(rf)
    span = RK4_STEPS * dt
    stats: dict = {}
    integrate(v0, span, rf, dt=dt, stats=stats)
    return timed(lambda: integrate(v0, span, rf, dt=dt), stats["n_steps"], "us/step")


def cli_command(args: tuple, workers: int, out: str) -> tuple[list, dict]:
    """The argv and environment of one subcommand run from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "sirb_lattice", *args, "--workers", str(workers), "--out", out]
    return argv, env


def run_cli(args: tuple, workers: int, out: str) -> tuple[float, float]:
    """One subcommand as its own process: its wall time and the CPU time of
    it and its workers, in ms."""
    argv, env = cli_command(args, workers, out)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = (time.perf_counter() - start) * 1e3
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime) * 1e3


def bench_cli(args: tuple) -> dict:
    """One subcommand at --workers 1: wall and CPU time, in ms per run."""
    wall, cpu = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPEATS):
            w, c = run_cli(args, 1, os.path.join(tmp, str(rep)))
            wall.append(w)
            cpu.append(c)
    return {f"{args[0]},wall": figure(wall, 1, "ms/run"),
            f"{args[0]},cpu": figure(cpu, 1, "ms/run")}


def bench_pool(args: tuple) -> dict:
    """One subcommand at each of POOL_WORKERS, the order alternating between
    repeats: wall and CPU time, in ms per run."""
    runs: dict = {(workers, clock): [] for workers in POOL_WORKERS for clock in ("wall", "cpu")}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPEATS):
            for workers in POOL_WORKERS if rep % 2 == 0 else POOL_WORKERS[::-1]:
                wall, cpu = run_cli(args, workers, os.path.join(tmp, f"{rep}-{workers}"))
                runs[workers, "wall"].append(wall)
                runs[workers, "cpu"].append(cpu)
    return {f"{args[0]},workers={workers},{clock}": figure(r, 1, "ms/run")
            for (workers, clock), r in runs.items()}


def bench_footprint(max_workers: int) -> dict:
    """Peak RSS of each of FOOTPRINT_RUNS at up to ``max_workers`` workers,
    each started through FOOTPRINT_STUB, in MiB per run."""
    runs = {(args, workers): [] for args, workers in FOOTPRINT_RUNS if workers <= max_workers}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPEATS):
            for index, ((args, workers), peaks) in enumerate(runs.items()):
                argv, env = cli_command(args, workers, os.path.join(tmp, f"{rep}-{index}"))
                done = subprocess.run([sys.executable, "-I", "-S", "-c", FOOTPRINT_STUB, *argv],
                                      cwd=ROOT, env=env, check=True, capture_output=True,
                                      text=True)
                peaks.append(int(done.stdout) / 1024)
    return {f"{args[0]},workers={workers}": figure(peaks, 1, "MiB")
            for (args, workers), peaks in runs.items()}


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return sha + (" (src differs from this commit)" if dirty else "")


def machine() -> dict:
    model_name = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model_name = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model_name, "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__,
    }


def quartiles(figures: list) -> dict:
    """Median and quartiles of the runs' medians, and the median of their
    minimums; one run gives three equal quartiles."""
    medians = [fig["median"] for fig in figures]
    q25, q50, q75 = statistics.quantiles(medians * 2 if len(medians) == 1 else medians, n=4,
                                         method="inclusive")
    return {"median": q50, "q25": q25, "q75": q75, "n_runs": len(medians),
            "min": statistics.median(fig["min"] for fig in figures)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    run = {
        "git_sha": git_sha(), "machine": machine(),
        "ssa": {f"n={n},h={h},k={k}" + (",logged" if logged else ""): bench_ssa(n, h, k, logged)
                for n, h, k, logged in SSA_CONFIGS},
        "paths": {key: fig for n in PATH_SIZES for key, fig in bench_paths(n).items()}
        if hasattr(stochastic, "_LIST_SITES") else {},
        "sweep": {f"n={n}": bench_sweep(n) for n in SWEEP_SIZES},
        "replay": {f"n={REPLAY_SIZE}": bench_replay(REPLAY_SIZE)},
        "io": {f"n={IO_SIZE}": bench_io(IO_SIZE)},
        "rk4": {f"n={n}": bench_rk4(n) for n in RK4_SIZES},
        "cli": {key: fig for args in CLI_RUNS for key, fig in bench_cli(args).items()},
        "pool": {key: fig for args in POOL_RUNS for key, fig in bench_pool(args).items()}
        if usable_cpus() >= max(POOL_WORKERS) else {},
        "footprint": bench_footprint(usable_cpus()),
    }
    if not run["pool"]:
        print(f"pool figures skipped: {usable_cpus()} usable CPU(s), {max(POOL_WORKERS)} needed")
    out = ROOT / f"BENCH_{args.label}.json"
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs.append(run)
    # runs recorded before a figure existed have no median for it
    summary = {
        layer: {key: {"unit": fig["unit"],
                      **quartiles([r[layer][key] for r in runs if key in r.get(layer, {})])}
                for key, fig in run[layer].items()}
        for layer in LAYERS
    }
    out.write_text(json.dumps({"label": args.label, "repeats": REPEATS, "summary": summary,
                               "runs": runs}, indent=2) + "\n")
    for layer in LAYERS:
        for key, fig in run[layer].items():
            total = summary[layer][key]
            print(f"{layer:6s} {key:28s} {fig['median']:9.2f} {fig['unit']} "
                  f"[{fig['min']:.2f}, {fig['max']:.2f}]; over {total['n_runs']} runs "
                  f"{total['median']:.2f} [{total['q25']:.2f}, {total['q75']:.2f}], "
                  f"min {total['min']:.2f}")
    print(f"wrote {out}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
