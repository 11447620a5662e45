"""Batch front end: config ingestion, experiment orchestration, output.

Subcommands: ``simulate``, ``pde``, ``homogeneous``, ``converge``,
``diagnose``.  Every run reads a flat INI-style config file (sections of
``key = value`` pairs, ``#`` comments) and writes a self-describing output
directory.  The full schema, every key at its default:

    [run]
    horizon = 1.0            # time horizon, > 0 (0 allowed for snapshots)
    samples = 21             # uniform sample grid size, >= 1
    replicas = 1             # independent runs, >= 1
    seed = 12345             # master seed (u64)
    workers = 1              # process count for replica parallelism, <= CPUs
    record_events = false    # keep full event logs (simulate; diagnose always logs)
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
    h = 100                  # humans renormalization, >= 1
    k = 100                  # bacteria renormalization, >= 1
    ladder = 8:100:100, 8:1000:1000   # converge mode only (n:h:k rungs);
                             # no default

    [initial]                # one preset per compartment:
    s = constant 0.9         #   constant VALUE
    i = constant 0.1         #   fourier M AMPLITUDE BASELINE, e.g. fourier 1 0.02 0.1
    r = constant 0.0         #   bump CENTER WIDTH HEIGHT, e.g. bump 0.5 0.1 0.8
    b = constant 0.5

    [pde]
    resolution = 64          # pde mode lattice size (defaults to scaling n); keeps
                             # the continuum coefficients of (ell, p_out, n)
    dt = auto                # RK4 step: auto | positive float

Unknown keys are rejected by name, and values are taken as written, with
no ``%`` interpolation.  The command-line flags ``--seed``,
``--replicas``, ``--workers``, ``--out`` and ``--mode`` are values of the
run keys ``seed``, ``replicas``, ``workers``, ``out`` and ``theorem``: a flag
replaces its key before any check, so a flag wins over the file, and the
file over the default.  Derived transport quantities (bias, advection,
diffusion) are computed from (ell, p_out, n) and echoed in the manifest;
they cannot be set directly.

``diagnose`` sweeps each replica's event log in the worker that simulated
it (``diagnostics.sweep_log``); the parent receives only the swept
(time, site) arrays and the run stats, and stacks them into the reports.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from . import io as run_io
from .deterministic import (
    DeterministicState, IntegrationError, ReactionField, homogeneous_ode, integrate,
)
from .diagnostics import (
    Sweep, _validate_ladder, lln_experiment, map_jobs, starting_point, sweep_log, usable_cpus,
)
from .lattice import TransportCoefficients
from .stochastic import COMPARTMENTS, EpidemicParams, ScalingParams, simulate_ssa, uniform_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

MODES = ("simulate", "pde", "homogeneous", "converge", "diagnose")

# Every key of the schema with its default, spelled as in a config file.
# None marks a key without a fixed default: scaling.ladder (converge needs
# one) and pde.resolution (scaling.n unless set).
_DEFAULTS = {
    "run": {"horizon": "1.0", "samples": "21", "replicas": "1", "seed": "12345",
            "workers": "1", "record_events": "false", "out": "runs/out",
            "theorem": "theorem1"},
    "params": {"mu": "0.2", "alpha": "0.15", "gamma": "0.6", "rho": "0.3",
               "beta": "1.2", "p_over_w": "0.8", "mu_b": "0.5",
               "ell": "0.5", "p_out": "0.7"},
    "scaling": {"n": "8", "h": "100", "k": "100", "ladder": None},
    "initial": {"s": "constant 0.9", "i": "constant 0.1", "r": "constant 0.0",
                "b": "constant 0.5"},
    "pde": {"resolution": None, "dt": "auto"},
}

# The run keys that a command-line flag sets, with the flag's name
_FLAGS = {"seed": "--seed", "replicas": "--replicas", "workers": "--workers",
          "out": "--out", "theorem": "--mode"}


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
    initial_spec: dict  # compartment -> preset text: text, not a profile, so it pickles
    pde_resolution: int
    pde_dt: float | str

    @property
    def echo(self) -> dict:
        """The resolved configuration, derived transport included, as the
        manifests record it: built from the fields, so it states the run
        that these values make."""
        tc = self.params().transport
        return {
            "mode": self.mode, "horizon": self.horizon, "samples": self.samples,
            "replicas": self.replicas, "seed": self.seed, "workers": self.workers,
            "record_events": self.record_events, "theorem": self.theorem,
            "params": dict(self.rates),
            "derived": {"bias": tc.bias, "nu": tc.nu, "diffusion": tc.diffusion},
            "scaling": {"n": self.n_sites, "h": self.h, "k": self.k,
                        "ladder": [list(r) for r in self.ladder] if self.ladder else None},
            "initial": dict(self.initial_spec),
            "pde": {"resolution": self.pde_resolution, "dt": str(self.pde_dt)},
            "version": __version__,
        }

    def params(self) -> EpidemicParams:
        r = self.rates
        return EpidemicParams(
            mu=r["mu"], alpha=r["alpha"], gamma=r["gamma"], rho=r["rho"],
            beta=r["beta"], p_over_w=r["p_over_w"], mu_b=r["mu_b"],
            transport=TransportCoefficients(ell=r["ell"], p_out=r["p_out"], n_sites=self.n_sites),
        )

    def scaling(self) -> ScalingParams:
        return ScalingParams(self.n_sites, self.h, self.k)

    def initial_fns(self) -> list[Callable]:
        return [_preset(c.lower(), self.initial_spec[c.lower()]) for c in COMPARTMENTS]

    def sample_grid(self) -> np.ndarray:
        return uniform_grid(self.horizon, self.samples)


# Each preset's name and the types of its arguments, in order
_PRESETS = {"constant": (float,), "fourier": (int, float, float), "bump": (float, float, float)}


def _preset(key: str, text: str) -> Callable:
    """The 1-periodic profile that the preset ``text`` of ``initial.<key>``
    names.  Raises ConfigError naming the key for an empty or unknown
    preset, malformed arguments, or a profile that dips below 0."""
    parts = text.split()
    if not parts:
        raise ConfigError(f"initial.{key}: empty preset")
    name, args = parts[0], parts[1:]
    if name not in _PRESETS:
        raise ConfigError(
            f"initial.{key}: unknown preset {name!r} (use constant, fourier, or bump)"
        )
    try:
        values = [kind(arg) for kind, arg in zip(_PRESETS[name], args, strict=True)]
    except ValueError:
        raise ConfigError(f"initial.{key}: malformed arguments {args!r} for {name!r}")
    if name == "constant":
        (c,) = values
        if c < 0:
            raise ConfigError(f"initial.{key}: constant must be >= 0, got {c}")
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if name == "fourier":
        m, amp, base = values
        if base - abs(amp) < 0:
            raise ConfigError(
                f"initial.{key}: fourier profile dips below 0 "
                f"(baseline {base}, amplitude {amp})"
            )
        return lambda x: base + amp * np.sin(2.0 * math.pi * m * np.asarray(x, dtype=float))
    center, width, height = values
    if width <= 0 or height < 0:
        raise ConfigError(f"initial.{key}: bump needs width > 0 and height >= 0")

    def bump(x):
        x = np.asarray(x, dtype=float)
        d = np.abs(x - center) % 1.0
        d = np.minimum(d, 1.0 - d)  # periodic distance
        return height * np.exp(-0.5 * (d / width) ** 2)

    return bump


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


def _positive_float(name: str, raw: str, minimum: float = 0.0) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{name}: not a number: {raw!r}")
    if not np.isfinite(v) or v < minimum:
        raise ConfigError(f"{name}: must be finite and >= {minimum}, got {raw}")
    return v


def _positive_int(name: str, raw: str, minimum: int = 1) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(f"{name}: not an integer: {raw!r}")
    if v < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {v}")
    return v


def _check_seed(name: str, raw: str) -> int:
    """A master seed keys a Philox stream, so it must fit in 64 bits."""
    seed = _positive_int(name, raw, minimum=0)
    if seed >= 2**64:
        raise ConfigError(f"{name}: must lie in [0, 2**64), got {seed}")
    return seed


def _check_workers(name: str, raw: str) -> int:
    """Each worker is a process, so a run may ask for at most one per CPU it
    may use."""
    workers = _positive_int(name, raw)
    cpus = usable_cpus()
    if workers > cpus:
        raise ConfigError(f"{name}: must lie in [1, {cpus}] (the usable CPU count), "
                          f"got {workers}")
    return workers


def parse_config(path, mode: str = "simulate", overrides: Optional[dict] = None) -> RunConfig:
    """Read and validate a config file for the given mode.

    ``overrides`` maps keys of ``_FLAGS`` (``seed``, ``replicas``,
    ``workers``, ``out``, ``theorem``) to values that replace the file's, as
    the command-line flags do.  Each key takes its override, else its value
    in the file, else its default in ``_DEFAULTS``, and only then is checked.
    Unknown sections or keys, out-of-range values, and regime violations
    (a converge ladder whose ratio drifts in theorem1 mode) are rejected
    with messages naming the offending key, or the flag of an override.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    overrides = overrides or {}
    for key in overrides:
        if key not in _FLAGS:
            raise ConfigError(f"run.{key}: no flag overrides it")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    raw = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    for section in cp.sections():
        if section not in raw:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in raw[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[section][key] = value

    def entry(section: str, key: str) -> tuple[str, str]:
        """The name a key's errors go under, and its text."""
        if section == "run" and key in overrides:
            return _FLAGS[key], str(overrides[key])
        return f"{section}.{key}", raw[section][key]

    horizon = _positive_float(*entry("run", "horizon"))
    samples = _positive_int(*entry("run", "samples"))
    replicas = _positive_int(*entry("run", "replicas"))
    seed = _check_seed(*entry("run", "seed"))
    workers = _check_workers(*entry("run", "workers"))
    out = Path(entry("run", "out")[1])
    record_raw = raw["run"]["record_events"].lower()
    if record_raw not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError(f"run.record_events: not a boolean: {record_raw!r}")
    record_events = record_raw in ("true", "yes", "1")
    name, theorem = entry("run", "theorem")
    if theorem not in ("theorem1", "theorem2"):
        raise ConfigError(f"{name}: expected theorem1 or theorem2, got {theorem!r}")

    rates = {key: _positive_float(*entry("params", key)) for key in raw["params"]}
    if rates["p_out"] > 1.0:
        raise ConfigError(f"params.p_out: probability out of range [0, 1]: {rates['p_out']}")

    n_sites = _positive_int(*entry("scaling", "n"), minimum=3)
    h = _positive_int(*entry("scaling", "h"))
    k = _positive_int(*entry("scaling", "k"))
    ladder_raw = raw["scaling"]["ladder"]
    ladder = None if ladder_raw is None else _parse_ladder(ladder_raw)
    if mode == "converge":
        if ladder is None:
            raise ConfigError("converge mode needs scaling.ladder")
        _check_ladder_regime(ladder, theorem)

    # the preset texts, whitespace normalised, each checked by building its profile
    initial_spec = {comp: " ".join(text.split()) for comp, text in raw["initial"].items()}
    for comp, text in initial_spec.items():
        _preset(comp, text)

    resolution = raw["pde"]["resolution"]
    pde_resolution = (n_sites if resolution is None
                      else _positive_int("pde.resolution", resolution, minimum=3))
    pde_dt = raw["pde"]["dt"]
    if pde_dt != "auto":
        pde_dt = _positive_float("pde.dt", pde_dt)
        if pde_dt == 0.0:
            raise ConfigError("pde.dt: must be positive or 'auto'")

    cfg = RunConfig(
        mode=mode, horizon=horizon, samples=samples, replicas=replicas,
        seed=seed, workers=workers, record_events=record_events, out=out,
        theorem=theorem, rates=rates, n_sites=n_sites, h=h, k=k,
        ladder=ladder, initial_spec=initial_spec,
        pde_resolution=pde_resolution, pde_dt=pde_dt,
    )
    if mode == "pde":
        try:
            cfg.params().with_lattice(pde_resolution)
        except ValueError as exc:
            raise ConfigError(f"pde.resolution: {exc}") from exc
    return cfg


def _check_ladder_regime(ladder, theorem: str):
    """Reuse the diagnostics regime check, rephrasing failures as ConfigError."""
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
    params = cfg.params().with_lattice(m)
    rf = ReactionField(params, hk_ratio=cfg.h / cfg.k)
    v0 = DeterministicState.from_functions(cfg.initial_fns(), m)
    grid = cfg.sample_grid()
    stats = {}
    densities = integrate(v0, cfg.horizon, rf, dt=cfg.pde_dt, sample_times=grid, stats=stats)
    run_io.write_density_csv(cfg.out / "trajectory.csv", grid, densities)
    run_io.write_manifest(cfg.out, ["trajectory.csv"], cfg.seed, cfg.echo, stats,
                          params=params, scaling=ScalingParams(m, cfg.h, cfg.k))


def _run_homogeneous(cfg: RunConfig) -> None:
    params = cfg.params()
    rf = ReactionField(params, hk_ratio=cfg.h / cfg.k)
    fns = cfg.initial_fns()
    # Spatial mean of each profile is the natural homogeneous initial state.
    y0 = [float(np.mean(fn(np.linspace(0.0, 1.0, 257)[:-1]))) for fn in fns]
    grid = cfg.sample_grid()
    stats = {}
    series = homogeneous_ode(y0, cfg.horizon, rf, sample_times=grid, stats=stats)
    # the trajectory schema on a one-site lattice
    run_io.write_density_csv(cfg.out / "trajectory.csv", grid, series[:, :, None])
    run_io.write_manifest(cfg.out, ["trajectory.csv"], cfg.seed, cfg.echo, stats, params=params)


def _run_converge(cfg: RunConfig) -> None:
    report = lln_experiment(
        cfg.ladder, cfg.initial_fns(), cfg.params(), cfg.horizon,
        replicas=cfg.replicas, seed=cfg.seed, mode=cfg.theorem,
        n_samples=cfg.samples, workers=cfg.workers,
    )
    run_io.write_convergence_report(cfg.out, report)
    # every rung has its own lattice (the config echoes the ladder), so the
    # run-wide scaling, params and initial_counts stay empty
    keys = ("n_sites", "h", "k", "n_events", "events_by_kind", "ball_exits", "rounding_error")
    stats = {"rungs": [{key: getattr(r, key) for key in keys} for r in report.rungs]}
    run_io.write_manifest(cfg.out, ["report_distances.csv", "report_summary.csv"], cfg.seed,
                          cfg.echo, stats)


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
    run_io.write_martingale_csv(cfg.out / "report_martingale.csv", grid, sweep.z[0])
    files = ["report_martingale.csv"]
    if cfg.replicas >= 2:
        run_io.write_compensator_csv(
            cfg.out / "report_compensators.csv", grid, sweep.observed - sweep.predicted
        )
        files.append("report_compensators.csv")
    state0, _, _ = starting_point(cfg.initial_fns(), cfg.scaling())
    run_io.write_manifest(cfg.out, files, cfg.seed, cfg.echo, {
        "n_events": [s["n_events"] for s in stats],
        "events_by_kind": np.sum([s["events_by_kind"] for s in stats], axis=0).tolist(),
    }, params=cfg.params(), scaling=cfg.scaling(), initial=state0)


def _clear_earlier_run(out: Path) -> None:
    """Delete the earlier run in ``out``, as its manifests record it.

    The manifests are ``out/manifest.json`` and each
    ``out/replica_NNN/manifest.json``.  From each, every listed name that
    is a regular file goes, then the manifest itself; a replica directory
    that this leaves empty goes last.  A manifest that cannot be read, or
    that ``RunManifest.from_json`` refuses (it lists only plain file names),
    is skipped, and no other file is touched: a file left by a run that died
    before it wrote its manifest stays.
    """
    replicas = [d for d in out.glob("replica_*") if d.name.removeprefix("replica_").isdecimal()]
    for directory in [out, *replicas]:
        try:
            manifest = run_io.RunManifest.from_json((directory / "manifest.json").read_text())
        except (OSError, ValueError, run_io.CorruptFileError):
            continue
        for name in [*manifest.file_hashes, "manifest.json"]:
            if (directory / name).is_file():
                (directory / name).unlink()
        if directory != out and not any(directory.iterdir()):
            directory.rmdir()


def run(config: RunConfig) -> int:
    """Execute a validated config; returns a process exit status.  The
    earlier run in ``config.out``, if any, is deleted first."""
    config.out.mkdir(parents=True, exist_ok=True)
    _clear_earlier_run(config.out)
    dispatch = {
        "simulate": _run_simulate,
        "pde": _run_pde,
        "homogeneous": _run_homogeneous,
        "converge": _run_converge,
        "diagnose": _run_diagnose,
    }
    dispatch[config.mode](config)
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
        # plain strings: the key's own check in parse_config is the one check
        for key, flag in _FLAGS.items():
            if flag != "--mode" or mode == "converge":
                p.add_argument(flag, dest=key, help=f"override run.{key}")
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FLAGS
                 if getattr(args, key, None) is not None}
    try:
        return run(parse_config(args.config, mode=args.mode, overrides=overrides))
    except (ConfigError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
