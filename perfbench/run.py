#!/usr/bin/env python3
"""The sirb-lattice benchmark: one seeded workload per call, through the public CLI.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from any directory; the package is taken from the ``src/`` beside this
directory.  Workloads (see workloads.py for their shapes):

    ladder     converge --mode theorem1, a constant-ratio ladder at n = 8
    diagnose   diagnose on the quickstart shape
    roundtrip  simulate with event logs at n = 256, then io.read_trajectory
               and io.replay_trajectory on every written run directory

A run first writes the workload's config from ``--seed``, then makes one
traced warm-up run (it fills caches and counts the simulated events, which
are exact at a fixed seed), then repeats the workload for ``--seconds``
seconds, each repetition preceded by two set-up probes.  With ``--trace 0``
every repetition is an untraced ``python -m sirb_lattice`` process and the
end-to-end metrics are printed; with ``--trace 1`` traced and untraced
repetitions alternate and the per-layer metrics are printed, from the median
traced repetition, with the tracing overhead.  Every repetition's outputs are
checked outside the timed region.  Report lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.

End-to-end metrics (median over repetitions, with quartiles and count):
    wall_s        process launch to exit; for roundtrip plus the read/replay
    setup_s       launch until parse_config and the initial-state build return
    events_per_s  simulated events summed over replicas, divided by wall_s
    peak_rss_mb   max RSS of the CLI process tree (os.wait4 rusage)
    failed_frac   share of repetitions that exited nonzero or failed a check
                  (reported, and counted in the JSON's ``failed``)

Nothing is pinned to a CPU and nothing is traced machine-wide: spans are
recorded only around calls into the package, from this directory's files.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable or "python3"
MIN_SETUPS = 5
SETUPS_PER_REP = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END = (  # name, unit, better
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
PER_LAYER = (
    ("stochastic.calls", "count", "lower"),
    ("stochastic.events", "count", "lower"),
    ("stochastic.self_s", "s", "lower"),
    ("stochastic.us_per_event", "us/event", "lower"),
    ("diagnostics.sweep.calls", "count", "lower"),
    ("diagnostics.sweep.events", "count", "lower"),
    ("diagnostics.sweep.self_s", "s", "lower"),
    ("diagnostics.sweep.us_per_event", "us/event", "lower"),
    ("diagnostics.sweep.redundancy", "ratio", "lower"),
    ("diagnostics.sup_distance.self_s", "s", "lower"),
    ("deterministic.integrate.calls", "count", "lower"),
    ("deterministic.integrate.steps", "count", "lower"),
    ("deterministic.integrate.self_s", "s", "lower"),
    ("deterministic.integrate.us_per_step", "us/step", "lower"),
    ("io.write.self_s", "s", "lower"),
    ("io.write.bytes", "B", "lower"),
    ("io.read.self_s", "s", "lower"),
    ("io.read.bytes", "B", "lower"),
    ("io.replay.self_s", "s", "lower"),
    ("io.replay.us_per_event", "us/event", "lower"),
    ("cli.pools", "count", "lower"),
    ("cli.wait_s", "s", "lower"),
    ("cli.worker_busy_s", "s", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("cli.payload_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall s, peak RSS MiB of its
    process tree, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _probe_setup(wl, cfg: Path, work: Path) -> float:
    rungs = [f"{n}:{h}:{k}" for n, h, k in wl.setup_rungs()]
    t0 = time.monotonic()
    done = subprocess.run(
        [PYTHON, str(HERE / "child.py"), "setup", str(cfg), wl.mode, *rungs],
        cwd=work, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def _audit(out: Path) -> dict:
    """The roundtrip's read/replay phase on every run directory, timed."""
    from sirb_lattice import io

    audits, read_s, replay_s, read_bytes, events = [], 0.0, 0.0, 0, 0
    for d in sorted(p for p in out.iterdir() if p.is_dir()):
        t0 = time.perf_counter()
        traj, manifest = io.read_trajectory(d)
        t1 = time.perf_counter()
        replayed = io.replay_trajectory(traj.initial, traj.event_log, traj.sample_times)
        t2 = time.perf_counter()
        read_s += t1 - t0
        replay_s += t2 - t1
        read_bytes += sum((d / f).stat().st_size for f in ["manifest.json", *manifest.file_hashes])
        events += len(traj.event_log)
        audits.append((d.name, traj, replayed))
    return {"audits": audits, "read_s": read_s, "replay_s": replay_s,
            "read_bytes": read_bytes, "replay_events": events}


def _repetition(wl, cfg: Path, work: Path, index: int, traced: bool) -> dict:
    """Run the workload once; time it, then check its outputs."""
    import workloads

    out = work / f"rep{index}"
    cli_args = [wl.mode, "--config", str(cfg), "--out", str(out), *wl.cli_args]
    spans_path = work / f"spans{index}.json"
    if traced:
        cmd = [PYTHON, str(HERE / "child.py"), "trace", str(spans_path), *cli_args]
    else:
        cmd = [PYTHON, "-m", "sirb_lattice", *cli_args]
    rep = {"traced": traced, "error": None, "info": {}, "hashes": {}}
    rep["child_wall"], rep["rss_mb"], rc = _run_child(cmd, work, work / f"log{index}.txt")
    rep["wall"] = rep["child_wall"]
    try:
        if rc != 0:
            tail = (work / f"log{index}.txt").read_text(errors="replace")[-400:]
            raise workloads.CheckError(f"exit code {rc}: {tail.strip()}")
        if wl.name == "roundtrip":
            rep["audit"] = _audit(out)
            rep["wall"] += rep["audit"]["read_s"] + rep["audit"]["replay_s"]
            workloads.check_replay(rep["audit"].pop("audits"))
        rep["info"] = wl.check(out)
        rep["hashes"] = workloads.data_hashes(out)
        if traced:
            rep["layers"] = _layer_metrics(json.loads(spans_path.read_text()), rep)
    except (workloads.CheckError, OSError, ValueError, KeyError, RuntimeError) as exc:
        rep["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rep


def _layer_metrics(spans: list[dict], rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.  A span's self time is its
    duration minus the durations of the spans directly inside it."""
    dur = [s["end"] - s["start"] for s in spans]
    inner = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            inner[s["parent"]] += d
    self_s = [d - c for d, c in zip(dur, inner)]

    def of(name):
        idx = [i for i, s in enumerate(spans) if s["name"] == name]
        return (len(idx), sum((self_s[i] for i in idx), 0.0),
                lambda key: sum(spans[i].get(key, 0) for i in idx))

    def per(total, count, scale=1e6):
        return total / count * scale if count else 0.0

    m = {}
    calls, busy, get = of("stochastic")
    sim_events = get("events")
    m.update({"stochastic.calls": calls, "stochastic.events": sim_events,
              "stochastic.self_s": busy, "stochastic.us_per_event": per(busy, sim_events)})
    calls, busy, get = of("diagnostics.sweep")
    m.update({"diagnostics.sweep.calls": calls, "diagnostics.sweep.events": get("events"),
              "diagnostics.sweep.self_s": busy,
              "diagnostics.sweep.us_per_event": per(busy, get("events")),
              "diagnostics.sweep.redundancy": per(get("events"), sim_events, 1.0)})
    m["diagnostics.sup_distance.self_s"] = of("diagnostics.sup_distance")[1]
    calls, busy, get = of("deterministic.integrate")
    m.update({"deterministic.integrate.calls": calls, "deterministic.integrate.steps": get("steps"),
              "deterministic.integrate.self_s": busy,
              "deterministic.integrate.us_per_step": per(busy, get("steps"))})
    _, busy, get = of("io.write")
    m.update({"io.write.self_s": busy, "io.write.bytes": get("bytes")})
    audit = rep.get("audit", {})
    m.update({"io.read.self_s": audit.get("read_s", 0.0), "io.read.bytes": audit.get("read_bytes", 0),
              "io.replay.self_s": audit.get("replay_s", 0.0),
              "io.replay.us_per_event": per(audit.get("replay_s", 0.0), audit.get("replay_events", 0))})
    pools = [(s, d) for s, d in zip(spans, dur) if s["name"] == "cli.pool"]
    worker_busy = sum((d for s, d in zip(spans, dur) if s["name"] == "cli.worker"), 0.0)
    capacity = sum(s["workers"] * d for s, d in pools)
    roots = [i for i, s in enumerate(spans) if s["name"] == "cli.main"]
    m.update({"cli.pools": len(pools), "cli.wait_s": sum((d for _, d in pools), 0.0),
              "cli.worker_busy_s": worker_busy,
              "cli.parallel_efficiency": worker_busy / capacity if capacity else 0.0,
              "cli.payload_bytes": sum(s["payload_bytes"] for s, _ in pools),
              # the child's whole life (interpreter, imports, config) minus
              # the layer spans directly inside cli.main
              "cli.self_s": rep["child_wall"] - sum(inner[i] for i in roots)})
    m["trace.wall_s"] = rep["wall"]
    return m


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _provenance(wl, seed: int, nproc: int) -> dict:
    import numpy
    import workloads

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name, "seed": seed, "nproc": nproc, "cpu_model": model,
        "l2_cache": caches.get("L2", "unknown"), "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(), "start_method": multiprocessing.get_start_method(),
        "workers": workloads.WORKERS, "blas_threads": 1,
        "isolation": "no CPU pinning and no machine-wide tracing; spans are recorded "
                     "only around calls into the package, in processes the benchmark owns",
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def bench(wl, seed: int, seconds: float, trace: bool, work: Path, min_reps: int) -> dict:
    """One traced warm-up, then repetitions for ``seconds`` and at least
    ``min_reps`` of each kind; set-up probes precede each repetition."""
    cfg = work / f"{wl.name}.cfg"
    cfg.write_text(wl.config_text(seed))
    warm = _repetition(wl, cfg, work, 0, traced=True)
    kinds = (False, True) if trace else (False,)
    reps, setups = [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(reps) < min_reps * len(kinds):
        setups += [_probe_setup(wl, cfg, work) for _ in range(SETUPS_PER_REP)]
        reps.append(_repetition(wl, cfg, work, len(reps) + 1, traced=kinds[len(reps) % len(kinds)]))
    while len(setups) < MIN_SETUPS:
        setups.append(_probe_setup(wl, cfg, work))
    for rep in reps:
        if rep["error"] is None and rep["hashes"] != warm["hashes"]:
            rep["error"] = "data files differ from another run with the same seed"
    return {"warm": warm, "reps": reps, "setups": setups}


def report(trace: bool, result: dict) -> dict:
    warm, reps = result["warm"], result["reps"]
    everything = [warm, *reps]
    failed = [r for r in everything if r["error"] is not None]
    for r in failed:
        print(f"perfbench failure: {r['error']}")
    events = warm.get("layers", {}).get("stochastic.events", 0)
    plain = [r for r in reps if not r["traced"]]
    samples = {
        "wall_s": [r["wall"] for r in plain],
        "setup_s": result["setups"],
        "events_per_s": [events / r["wall"] for r in plain],
        "peak_rss_mb": [r["rss_mb"] for r in plain],
    }
    if trace:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        overhead = (statistics.median(r["wall"] for r in traced)
                    - statistics.median(samples["wall_s"])) if traced else 0.0
        samples = {name: [r["layers"][name] for r in traced] or [0.0]
                   for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [overhead]
        table = PER_LAYER
    else:
        table = END_TO_END
    metrics = {}
    for name, unit, better in table:
        med, q1, q3 = _summary(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"perfbench metric {name} = {med!r} {unit} ({better} is better; "
              f"median of {len(samples[name])}, q1 {q1!r}, q3 {q3!r}; "
              f"samples {[round(v, 6) for v in samples[name]]})")
    print(f"perfbench metric failed_frac = {len(failed) / len(everything)!r} ratio "
          f"(lower is better; {len(failed)} of {len(everything)} runs failed)")
    if warm["info"]:
        print(f"perfbench info (gates nothing): {json.dumps(warm['info'])}")
    return {"correct": not failed, "attempted": len(everything), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (SRC / "sirb_lattice" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'sirb_lattice'}", file=sys.stderr)
        return 2
    wl = workloads.workload(args.workload, tiny=args.size == "tiny")
    nproc = len(os.sched_getaffinity(0))
    if workloads.WORKERS > nproc:
        print(f"perfbench: refusing to run {workloads.WORKERS} workers on {nproc} CPUs",
              file=sys.stderr)
        return 2

    print(f"perfbench provenance: {json.dumps(_provenance(wl, args.seed, nproc))}")
    print(f"perfbench config:\n{wl.config_text(args.seed)}")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench_work"))
    try:
        result = bench(wl, args.seed, args.seconds, bool(args.trace), work,
                       min_reps=1 if args.size == "tiny" else 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(report(bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
