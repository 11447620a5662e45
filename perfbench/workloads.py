"""Benchmark workloads: seeded INI configs for the CLI and exact checks of its outputs.

Every workload is a batch job run by one client, one run at a time (a closed
loop).  The program sees only the config written here; the benchmark seed
picks the master seed ``run.seed`` and nothing else, so the amount of work is
the same for every seed up to the randomness of the jump process itself.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKERS = 2
SAMPLES = 21
NAMES = ("ladder", "diagnose", "roundtrip")

# Rates and initial profiles of demos/configs/quickstart.cfg.
_MODEL = """\
[params]
mu = 0.2
alpha = 0.15
gamma = 0.6
rho = 0.3
beta = 1.2
p_over_w = 0.8
mu_b = 0.5
ell = 0.5
p_out = 0.7

[initial]
s = fourier 1 0.05 0.9
i = constant 0.1
r = constant 0.0
b = constant 0.5
"""


class CheckError(Exception):
    """An output of the program failed an exact check."""


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # CLI subcommand
    cli_args: tuple[str, ...]  # extra CLI flags
    horizon: float
    replicas: int
    n: int  # lattice sites of every run
    h: int
    k: int
    ladder: tuple[tuple[int, int, int], ...] = ()
    record_events: bool = False

    def config_text(self, seed: int) -> str:
        """The INI config for benchmark seed ``seed``, in the schema of cli.py."""
        run = [
            "[run]",
            f"horizon = {self.horizon!r}",
            f"samples = {SAMPLES}",
            f"replicas = {self.replicas}",
            f"seed = {random.Random(seed).randrange(2**32)}",
            f"workers = {WORKERS}",
        ]
        if self.mode == "converge":
            run.append("theorem = theorem1")
        if self.record_events:
            run.append("record_events = true")
        scaling = ["[scaling]", f"n = {self.n}", f"h = {self.h}", f"k = {self.k}"]
        if self.ladder:
            scaling.append("ladder = " + ", ".join(f"{n}:{h}:{k}" for n, h, k in self.ladder))
        return "\n".join(run) + "\n\n" + "\n".join(scaling) + "\n\n" + _MODEL

    def setup_rungs(self) -> list[tuple[int, int, int]]:
        """Every (n, h, k) whose initial state the program builds."""
        return list(self.ladder) or [(self.n, self.h, self.k)]

    def check(self, out: Path) -> dict:
        """Exact checks of one run's outputs; raises CheckError.  Returns
        figures recorded for information only."""
        return {"ladder": _check_ladder, "diagnose": _check_diagnose,
                "roundtrip": _check_roundtrip}[self.name](self, out)


def workload(name: str, tiny: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` shrinks it for the smoke test."""
    if name == "ladder":
        # converge.cfg's constant-ratio ladder, one decade lower so that many
        # replicas per rung fit in a run of a few seconds.
        return Workload(
            name, "converge", ("--mode", "theorem1"),
            horizon=1.0, replicas=2 if tiny else 10,
            n=8, h=1000, k=1000,
            ladder=((8, 10, 10), (8, 100, 100), (8, 1000, 1000)),
        )
    if name == "diagnose":
        # quickstart.cfg's shape with two replicas, the fewest for which the
        # compensator report is written.
        return Workload(
            name, "diagnose", (), horizon=1.0,
            replicas=2, n=8, h=1000, k=1000,
        )
    if name == "roundtrip":
        # A wide lattice, where the simulator's per-event cost grows with n;
        # the short horizon keeps one replica near 36k events.
        return Workload(
            name, "simulate", (), horizon=0.01 if tiny else 0.1,
            replicas=2, n=256, h=1000, k=1000, record_events=True,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


# ---------------------------------------------------------------------------
# Output checks

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verify_manifest(directory: Path, required: tuple[str, ...]) -> dict:
    """Check the sha256 of every file manifest.json lists; return the hashes."""
    from sirb_lattice.io import sha256_file

    path = directory / "manifest.json"
    if not path.is_file():
        raise CheckError(f"{path.name} missing in {directory.name}")
    hashes = json.loads(path.read_text())["file_hashes"]
    missing = [f for f in required if f not in hashes]
    if missing:
        raise CheckError(f"manifest in {directory.name} does not hash {missing}")
    for name, expected in hashes.items():
        if sha256_file(directory / name) != expected:
            raise CheckError(f"{directory.name}/{name} fails its manifest hash")
    return hashes


def data_hashes(out: Path) -> dict[str, str]:
    """Hash of every data file listed by a manifest under ``out``, keyed by
    relative path.  Runs with one seed must agree on all of them."""
    found = {}
    for manifest in sorted(out.rglob("manifest.json")):
        rel = manifest.parent.relative_to(out)
        for name, digest in json.loads(manifest.read_text())["file_hashes"].items():
            found[str(rel / name)] = digest
    return found


def _check_ladder(wl: Workload, out: Path) -> dict:
    _verify_manifest(out, ("report_distances.csv", "report_summary.csv"))
    rows = _rows(out / "report_distances.csv")
    pairs = sorted((int(r["rung"]), int(r["replica"])) for r in rows)
    expected = [(g, r) for g in range(len(wl.ladder)) for r in range(wl.replicas)]
    if pairs != expected:
        raise CheckError(
            f"report_distances.csv has {len(rows)} rows, expected "
            f"{len(wl.ladder)} rungs x {wl.replicas} replicas")
    for r in rows:
        d = float(r["distance"])
        if not (math.isfinite(d) and d > 0.0):
            raise CheckError(f"distance {r['distance']} at rung {r['rung']} is not finite and > 0")
    summary = _rows(out / "report_summary.csv")
    if len(summary) != len(wl.ladder):
        raise CheckError(f"report_summary.csv has {len(summary)} rungs, expected {len(wl.ladder)}")
    medians = [float(r["median"]) for r in summary]
    return {"rung_medians": medians, "last_over_first": medians[-1] / medians[0]}


def _check_diagnose(wl: Workload, out: Path) -> dict:
    files = ("report_martingale.csv", "report_compensators.csv")
    _verify_manifest(out, files)
    for name, families in zip(files, (4, 6)):
        rows = _rows(out / name)
        if len(rows) != SAMPLES * wl.n * families:
            raise CheckError(
                f"{name} has {len(rows)} rows, expected {SAMPLES} samples x "
                f"{wl.n} sites x {families} families")
    at_zero = [r for r in _rows(out / files[0]) if float(r["time"]) == 0.0]
    if len(at_zero) != wl.n * 4 or any(float(r["z"]) != 0.0 for r in at_zero):
        raise CheckError("a martingale residual at t = 0 is not exactly 0")
    return {}


def _check_roundtrip(wl: Workload, out: Path) -> dict:
    dirs = sorted(p for p in out.iterdir() if p.is_dir())
    if [d.name for d in dirs] != [f"replica_{r:03d}" for r in range(wl.replicas)]:
        raise CheckError(f"expected {wl.replicas} replica directories, found {[d.name for d in dirs]}")
    for d in dirs:
        _verify_manifest(d, ("events.bin", "snapshots.bin"))
    return {}


def check_replay(audits: list) -> None:
    """Replayed snapshots must equal the stored snapshots exactly."""
    for name, traj, replayed in audits:
        if len(replayed) != len(traj.states) or any(
                a != b for a, b in zip(replayed, traj.states)):
            raise CheckError(f"{name}: replayed snapshots differ from snapshots.bin")
