"""Batch front end: config ingestion, experiment orchestration, output.

Subcommands: ``simulate``, ``pde``, ``homogeneous``, ``converge``,
``diagnose``.  Every run reads a flat INI-style config file (sections of
``key = value`` pairs, ``#`` comments) and writes a self-describing output
directory.  The full schema:

    [run]
    horizon = 1.0            # time horizon, > 0 (0 allowed for snapshots)
    samples = 21             # uniform sample grid size, >= 1
    replicas = 1             # independent runs, >= 1
    seed = 12345             # master seed (u64)
    workers = 1              # process count for replica parallelism, <= CPUs
    record_events = false    # keep full event logs (simulate/diagnose)
    out = runs/out           # output directory
    theorem = theorem1       # converge regime: theorem1 | theorem2

    [params]                 # all rates >= 0
    mu = 0.2                 # human birth/death
    alpha = 0.15             # cholera mortality
    gamma = 0.6              # recovery
    rho = 0.3                # immunity loss
    beta = 1.2               # exposure
    p_over_w = 0.8           # contamination per infected
    mu_b = 0.5               # bacterial death
    ell = 0.5                # transport rate
    p_out = 0.7              # downstream hop probability, in [0, 1]

    [scaling]
    n = 8                    # lattice sites, >= 3
    h = 1000                 # humans renormalization, >= 1
    k = 1000                 # bacteria renormalization, >= 1
    ladder = 8:100:100, 8:1000:1000   # converge mode only (n:h:k rungs)

    [initial]                # one preset per compartment
    s = constant 0.9
    i = fourier 1 0.02 0.1   # fourier M AMPLITUDE BASELINE
    r = constant 0.0
    b = bump 0.5 0.1 0.8     # bump CENTER WIDTH HEIGHT

    [pde]
    resolution = 64          # pde mode lattice size (defaults to scaling n)
    dt = auto                # RK4 step: auto | positive float

Unknown keys are rejected by name.  Derived transport quantities (bias,
advection, diffusion) are computed from (ell, p_out, n) and echoed in the
manifest; they cannot be set directly.

``diagnose`` sweeps each replica's event log in the worker that simulated
it (``diagnostics.sweep_log``); the parent receives only the swept
(time, site) arrays and the run stats, and stacks them into the reports.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from . import io as run_io
from .deterministic import DeterministicState, ReactionField, homogeneous_ode, integrate
from .diagnostics import Sweep, lln_experiment, map_jobs, starting_point, sweep_log, usable_cpus
from .lattice import TransportCoefficients
from .stochastic import COMPARTMENTS, EpidemicParams, ScalingParams, simulate_ssa, uniform_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

MODES = ("simulate", "pde", "homogeneous", "converge", "diagnose")

_KNOWN_KEYS = {
    "run": {"horizon", "samples", "replicas", "seed", "workers",
            "record_events", "out", "theorem"},
    "params": {"mu", "alpha", "gamma", "rho", "beta", "p_over_w", "mu_b",
               "ell", "p_out"},
    "scaling": {"n", "h", "k", "ladder"},
    "initial": {c.lower() for c in COMPARTMENTS},
    "pde": {"resolution", "dt"},
}

_PLOT_STUB = """\
#!/usr/bin/env python3
# Minimal plotting stub for the CSV files in this directory.
# Requires matplotlib, which is intentionally not a package dependency.
import csv, sys
from collections import defaultdict

path = sys.argv[1] if len(sys.argv) > 1 else "trajectory.csv"
rows = list(csv.DictReader(open(path)))
by_site = defaultdict(list)
for row in rows:
    by_site[row["site"]].append(row)

import matplotlib.pyplot as plt
fig, axes = plt.subplots(2, 2, sharex=True)
for ax, comp in zip(axes.flat, ("S", "I", "R", "B")):
    for site, series in sorted(by_site.items()):
        ax.plot([float(r["time"]) for r in series],
                [float(r[comp]) for r in series], label=f"site {site}")
    ax.set_title(comp)
axes.flat[0].legend(fontsize="x-small")
plt.tight_layout()
plt.show()
"""


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


@dataclass
class RunConfig:
    """Fully validated run description with all derived quantities filled."""

    mode: str
    horizon: float
    samples: int
    replicas: int
    seed: int
    workers: int
    record_events: bool
    out: Path
    theorem: str
    rates: dict
    n_sites: int
    h: int
    k: int
    ladder: Optional[list[tuple[int, int, int]]]
    initial_spec: dict
    pde_resolution: int
    pde_dt: float | str
    echo: dict = field(default_factory=dict)

    def params(self, n_sites: Optional[int] = None) -> EpidemicParams:
        n = self.n_sites if n_sites is None else n_sites
        r = self.rates
        return EpidemicParams(
            mu=r["mu"], alpha=r["alpha"], gamma=r["gamma"], rho=r["rho"],
            beta=r["beta"], p_over_w=r["p_over_w"], mu_b=r["mu_b"],
            transport=TransportCoefficients(ell=r["ell"], p_out=r["p_out"], n_sites=n),
        )

    def scaling(self) -> ScalingParams:
        return ScalingParams(self.n_sites, self.h, self.k)

    def initial_fns(self) -> list[Callable]:
        return [_preset_fn(self.initial_spec[c.lower()]) for c in COMPARTMENTS]

    def sample_grid(self) -> np.ndarray:
        return uniform_grid(self.horizon, self.samples)


def _preset_fn(spec: tuple) -> Callable:
    """Turn a parsed preset tuple into a 1-periodic profile function."""
    name, args = spec
    if name == "constant":
        (c,) = args
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if name == "fourier":
        m, amp, base = args
        return lambda x: base + amp * np.sin(2.0 * math.pi * m * np.asarray(x, dtype=float))
    if name == "bump":
        center, width, height = args

        def bump(x):
            x = np.asarray(x, dtype=float)
            d = np.abs(x - center)
            d = np.minimum(d, 1.0 - d)  # periodic distance
            return height * np.exp(-0.5 * (d / width) ** 2)

        return bump
    raise AssertionError(f"unhandled preset {name}")


def _parse_preset(key: str, raw: str) -> tuple:
    parts = raw.split()
    if not parts:
        raise ConfigError(f"initial.{key}: empty preset")
    name, args = parts[0], parts[1:]
    try:
        if name == "constant":
            (c,) = map(float, args)
            if c < 0:
                raise ConfigError(f"initial.{key}: constant must be >= 0, got {c}")
            return ("constant", (c,))
        if name == "fourier":
            m_s, amp_s, base_s = args
            m, amp, base = int(m_s), float(amp_s), float(base_s)
            if base - abs(amp) < 0:
                raise ConfigError(
                    f"initial.{key}: fourier profile dips below 0 "
                    f"(baseline {base}, amplitude {amp})"
                )
            return ("fourier", (m, amp, base))
        if name == "bump":
            center, width, height = map(float, args)
            if width <= 0 or height < 0:
                raise ConfigError(f"initial.{key}: bump needs width > 0 and height >= 0")
            return ("bump", (center, width, height))
    except ConfigError:
        raise
    except (ValueError, TypeError):
        raise ConfigError(f"initial.{key}: malformed arguments {args!r} for {name!r}")
    raise ConfigError(
        f"initial.{key}: unknown preset {name!r} (use constant, fourier, or bump)"
    )


def _parse_ladder(raw: str) -> list[tuple[int, int, int]]:
    rungs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"scaling.ladder: rung {chunk!r} is not n:h:k")
        try:
            rungs.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ConfigError(f"scaling.ladder: rung {chunk!r} has non-integer entries")
    if not rungs:
        raise ConfigError("scaling.ladder: no rungs given")
    return rungs


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key)
    return default


def _positive_float(section: str, key: str, raw: str, minimum: float = 0.0) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}")
    if not np.isfinite(v) or v < minimum:
        raise ConfigError(f"{section}.{key}: must be finite and >= {minimum}, got {raw}")
    return v


def _positive_int(section: str, key: str, raw: str, minimum: int = 1) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}")
    if v < minimum:
        raise ConfigError(f"{section}.{key}: must be >= {minimum}, got {v}")
    return v


def _check_seed(key: str, seed: int):
    """A master seed keys a Philox stream, so it must fit in 64 bits."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{key}: must lie in [0, 2**64), got {seed}")


def _check_workers(key: str, workers: int):
    """Each worker is a process, so a run may ask for at most one per CPU it
    may use."""
    cpus = usable_cpus()
    if not 1 <= workers <= cpus:
        raise ConfigError(f"{key}: must lie in [1, {cpus}] (the usable CPU count), "
                          f"got {workers}")


def parse_config(path, mode: str = "simulate", theorem: Optional[str] = None) -> RunConfig:
    """Read and validate a config file for the given mode.

    Unknown sections or keys, out-of-range values, and regime violations
    (a converge ladder whose ratio drifts in theorem1 mode) are rejected
    with messages naming the offending key.  ``theorem`` overrides
    run.theorem before the ladder regime is checked.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    horizon = _positive_float("run", "horizon", _get(cp, "run", "horizon", "1.0"))
    samples = _positive_int("run", "samples", _get(cp, "run", "samples", "21"))
    replicas = _positive_int("run", "replicas", _get(cp, "run", "replicas", "1"))
    seed = _positive_int("run", "seed", _get(cp, "run", "seed", "12345"), minimum=0)
    _check_seed("run.seed", seed)
    workers = _positive_int("run", "workers", _get(cp, "run", "workers", "1"))
    _check_workers("run.workers", workers)
    out = Path(_get(cp, "run", "out", "runs/out"))
    record_raw = _get(cp, "run", "record_events", "false").strip().lower()
    if record_raw not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError(f"run.record_events: not a boolean: {record_raw!r}")
    record_events = record_raw in ("true", "yes", "1")
    if theorem is None:
        theorem = _get(cp, "run", "theorem", "theorem1").strip()
    if theorem not in ("theorem1", "theorem2"):
        raise ConfigError(f"run.theorem: expected theorem1 or theorem2, got {theorem!r}")

    rates = {}
    defaults = {"mu": "0.2", "alpha": "0.15", "gamma": "0.6", "rho": "0.3",
                "beta": "1.2", "p_over_w": "0.8", "mu_b": "0.5",
                "ell": "0.5", "p_out": "0.7"}
    for key, dflt in defaults.items():
        rates[key] = _positive_float("params", key, _get(cp, "params", key, dflt))
    if rates["p_out"] > 1.0:
        raise ConfigError(
            f"params.p_out: probability out of range [0, 1]: {rates['p_out']}"
        )

    n_sites = _positive_int("scaling", "n", _get(cp, "scaling", "n", "8"), minimum=3)
    h = _positive_int("scaling", "h", _get(cp, "scaling", "h", "100"))
    k = _positive_int("scaling", "k", _get(cp, "scaling", "k", "100"))
    ladder = None
    ladder_raw = _get(cp, "scaling", "ladder")
    if ladder_raw is not None:
        ladder = _parse_ladder(ladder_raw)
    if mode == "converge":
        if ladder is None:
            raise ConfigError("converge mode needs scaling.ladder")
        _check_ladder_regime(ladder, theorem)

    initial_spec = {}
    init_defaults = {"s": "constant 0.9", "i": "constant 0.1",
                     "r": "constant 0.0", "b": "constant 0.5"}
    for comp, dflt in init_defaults.items():
        initial_spec[comp] = _parse_preset(comp, _get(cp, "initial", comp, dflt))

    pde_resolution = _positive_int(
        "pde", "resolution", _get(cp, "pde", "resolution", str(n_sites)), minimum=3
    )
    dt_raw = _get(cp, "pde", "dt", "auto").strip()
    pde_dt: float | str
    if dt_raw == "auto":
        pde_dt = "auto"
    else:
        pde_dt = _positive_float("pde", "dt", dt_raw)
        if pde_dt == 0.0:
            raise ConfigError("pde.dt: must be positive or 'auto'")

    cfg = RunConfig(
        mode=mode, horizon=horizon, samples=samples, replicas=replicas,
        seed=seed, workers=workers, record_events=record_events, out=out,
        theorem=theorem, rates=rates, n_sites=n_sites, h=h, k=k,
        ladder=ladder, initial_spec=initial_spec,
        pde_resolution=pde_resolution, pde_dt=pde_dt,
    )
    # Echo the resolved configuration, derived transport included.
    tc = cfg.params().transport
    cfg.echo = {
        "mode": mode, "horizon": horizon, "samples": samples,
        "replicas": replicas, "seed": seed, "workers": workers,
        "record_events": record_events, "theorem": theorem,
        "params": dict(rates),
        "derived": {"bias": tc.bias, "nu": tc.nu, "diffusion": tc.diffusion},
        "scaling": {"n": n_sites, "h": h, "k": k,
                    "ladder": [list(r) for r in ladder] if ladder else None},
        "initial": {c: f"{name} " + " ".join(str(a) for a in args)
                    for c, (name, args) in initial_spec.items()},
        "pde": {"resolution": pde_resolution, "dt": str(pde_dt)},
        "version": __version__,
    }
    return cfg


def _check_ladder_regime(ladder, theorem: str):
    """Reuse the diagnostics regime check, rephrasing failures as ConfigError."""
    from .diagnostics import _validate_ladder

    try:
        _validate_ladder(ladder, theorem)
    except ValueError as exc:
        raise ConfigError(f"scaling.ladder: {exc}") from exc


# ---------------------------------------------------------------------------
# Orchestration

def _one_simulation(args) -> None:
    """Worker: run one replica and persist it (top level for pickling)."""
    cfg, rep, directory = args
    state0, _, rounding = starting_point(cfg.initial_fns(), cfg.scaling())
    traj = simulate_ssa(
        state0, cfg.horizon, cfg.sample_grid(), cfg.params(), cfg.scaling(),
        seed=cfg.seed, stream=rep, record_events=cfg.record_events,
    )
    echo = dict(cfg.echo, replica=rep, initial_rounding_error=rounding)
    run_io.write_trajectory(directory, traj, cfg.params(), cfg.scaling(), echo)


def _run_simulate(cfg: RunConfig) -> None:
    jobs = []
    for rep in range(cfg.replicas):
        directory = cfg.out if cfg.replicas == 1 else cfg.out / f"replica_{rep:03d}"
        jobs.append((cfg, rep, directory))
    map_jobs(_one_simulation, jobs, cfg.workers)


def _run_pde(cfg: RunConfig) -> None:
    m = cfg.pde_resolution
    params = cfg.params(m)
    rf = ReactionField(params, hk_ratio=cfg.h / cfg.k, mode="coupled")
    v0 = DeterministicState.from_functions(cfg.initial_fns(), m)
    grid = cfg.sample_grid()
    stats = {}
    densities = integrate(v0, cfg.horizon, rf, params.transport,
                          dt=cfg.pde_dt, sample_times=grid, stats=stats)
    cfg.out.mkdir(parents=True, exist_ok=True)
    run_io._write_density_csv(cfg.out / "trajectory.csv", grid, densities)
    run_io.RunManifest(
        seed=cfg.seed, config=cfg.echo, params=run_io._params_dict(params),
        scaling=run_io._scaling_dict(ScalingParams(m, cfg.h, cfg.k)), stats=stats,
    ).write(cfg.out, ["trajectory.csv"])


def _run_homogeneous(cfg: RunConfig) -> None:
    params = cfg.params()
    rf = ReactionField(params, hk_ratio=cfg.h / cfg.k, mode="coupled")
    fns = cfg.initial_fns()
    # Spatial mean of each profile is the natural homogeneous initial state.
    y0 = [float(np.mean(fn(np.linspace(0.0, 1.0, 257)[:-1]))) for fn in fns]
    grid = cfg.sample_grid()
    stats = {}
    series = homogeneous_ode(y0, cfg.horizon, rf, sample_times=grid, stats=stats)
    cfg.out.mkdir(parents=True, exist_ok=True)
    # the trajectory schema on a one-site lattice
    run_io._write_density_csv(cfg.out / "trajectory.csv", grid, series[:, :, None])
    run_io.RunManifest(
        seed=cfg.seed, config=cfg.echo, params=run_io._params_dict(params), stats=stats,
    ).write(cfg.out, ["trajectory.csv"])


def _run_converge(cfg: RunConfig) -> None:
    report = lln_experiment(
        cfg.ladder, cfg.initial_fns(), cfg.params(), cfg.horizon,
        replicas=cfg.replicas, seed=cfg.seed, mode=cfg.theorem,
        n_samples=cfg.samples, workers=cfg.workers,
    )
    run_io.write_convergence_report(cfg.out, report)
    # every rung has its own lattice (the config echoes the ladder), so the
    # run-wide scaling, params and initial_counts stay empty
    run_io.RunManifest(seed=cfg.seed, config=cfg.echo).write(
        cfg.out, ["report_distances.csv", "report_summary.csv"]
    )


def _one_diagnose_replica(args):
    """Worker: simulate one logged replica and sweep its log here, so only
    the swept (time, site) arrays and the run stats travel back."""
    cfg, rep = args
    state0, _, _ = starting_point(cfg.initial_fns(), cfg.scaling())
    traj = simulate_ssa(
        state0, cfg.horizon, cfg.sample_grid(), cfg.params(), cfg.scaling(),
        seed=cfg.seed, stream=rep, record_events=True,
    )
    return sweep_log(traj, cfg.params(), cfg.scaling()), traj.stats


def _run_diagnose(cfg: RunConfig) -> None:
    jobs = [(cfg, rep) for rep in range(cfg.replicas)]
    sweeps, stats = zip(*map_jobs(_one_diagnose_replica, jobs, cfg.workers))
    sweep = Sweep.stack(sweeps)
    grid = cfg.sample_grid()
    cfg.out.mkdir(parents=True, exist_ok=True)
    run_io.write_martingale_csv(cfg.out / "report_martingale.csv", grid, sweep.z[0])
    files = ["report_martingale.csv"]
    if cfg.replicas >= 2:
        run_io.write_compensator_csv(
            cfg.out / "report_compensators.csv", grid, sweep.observed - sweep.predicted
        )
        files.append("report_compensators.csv")
    state0, _, _ = starting_point(cfg.initial_fns(), cfg.scaling())
    run_io.RunManifest(
        seed=cfg.seed, config=cfg.echo, scaling=run_io._scaling_dict(cfg.scaling()),
        params=run_io._params_dict(cfg.params()), initial_counts=run_io._counts_dict(state0),
        stats={
            "n_events": [s["n_events"] for s in stats],
            "events_by_kind": np.sum([s["events_by_kind"] for s in stats], axis=0).tolist(),
        },
    ).write(cfg.out, files)


def run(config: RunConfig) -> int:
    """Execute a validated config; returns a process exit status."""
    config.out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "simulate": _run_simulate,
        "pde": _run_pde,
        "homogeneous": _run_homogeneous,
        "converge": _run_converge,
        "diagnose": _run_diagnose,
    }
    dispatch[config.mode](config)
    (config.out / "plot.py").write_text(_PLOT_STUB)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sirb-lattice",
        description="Lattice SIRB epidemic simulator and verification harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} run")
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--replicas", type=int, help="override run.replicas")
        p.add_argument("--workers", type=int, help="override run.workers")
        p.add_argument("--out", help="override run.out")
        if mode == "converge":
            p.add_argument("--mode", dest="theorem",
                           choices=("theorem1", "theorem2"),
                           help="override run.theorem")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, mode=args.mode,
                           theorem=getattr(args, "theorem", None))
        if args.seed is not None:
            _check_seed("--seed", args.seed)
            cfg.seed = args.seed
            cfg.echo["seed"] = args.seed
        if args.replicas is not None:
            if args.replicas < 1:
                raise ConfigError(f"--replicas must be >= 1, got {args.replicas}")
            cfg.replicas = args.replicas
            cfg.echo["replicas"] = args.replicas
        if args.workers is not None:
            _check_workers("--workers", args.workers)
            cfg.workers = args.workers
            cfg.echo["workers"] = args.workers
        if args.out is not None:
            cfg.out = Path(args.out)
        return run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
