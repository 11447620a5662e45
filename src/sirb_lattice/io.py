"""Persistence and replay.

One run directory holds:

    manifest.json    config echo, seed, version, timestamps, file hashes,
                     RNG label and run stats (events by kind)
    trajectory.csv   rescaled densities, columns (time, site, S, I, R, B)
    snapshots.bin    integer counts at sample times (exact replay source)
    events.bin       optional full event log
    report_*.csv     diagnostics outputs

Sites are reported 1-based in CSV output. Binary formats, little-endian:

    events.bin     magic "SIRBEVTS", version byte 0x01, then repeated
                   13-byte frames: f64 time, u8 kind, u32 site
    snapshots.bin  magic "SIRBSNAP", version byte 0x01, u32 n_sites,
                   u32 n_samples, then per sample: f64 time followed by
                   4 * n_sites u64 counts (S, I, R, B blocks)

Every emitted file is hashed (sha256) into the manifest by
``write_manifest``; reads verify the hashes, parse only the bytes they
verified, and fail loudly on any mismatch or truncation.

The SHA-256 is CPython's own module, ``_sha2`` on Python 3.12+ and
``_sha256`` on 3.10-3.11, and ``hashlib``'s only on a build that has
neither.  ``hashlib`` maps OpenSSL, about 3.5 MiB of resident memory, into
the process, which here hashes only a run directory's KiB to MiB.  The
built-in gives the same digests at about a sixth of OpenSSL's speed
(4.6-5.1 against 0.84-0.86 ms/MiB on a 2-vCPU x86-64 host).  So a CLI
process maps OpenSSL, like the process-pool stack (``diagnostics.map_jobs``),
only where it uses it: a pool worker maps it through ``numpy.random``
(``secrets`` imports ``hmac``), and on numpy < 2 ``import numpy`` loads
``numpy.random`` and so maps it in every process.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

try:  # CPython's own SHA-256, as random.py takes its SHA-512
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

import numpy as np

from . import __version__
from .diagnostics import FAMILIES, ConvergenceReport, replica_mean_se
from .stochastic import (
    COMPARTMENTS,
    N_EVENT_KINDS,
    RNG_ALGORITHM,
    SOURCES,
    EpidemicParams,
    EventKind,
    EventLog,
    ScalingParams,
    SystemState,
    Trajectory,
    _increasing_grid,
    _state_views,
    log_entries,
)

__all__ = [
    "CorruptFileError",
    "RunManifest",
    "write_manifest",
    "write_trajectory",
    "read_trajectory",
    "write_density_csv",
    "write_convergence_report",
    "write_martingale_csv",
    "write_compensator_csv",
    "replay_trajectory",
    "sha256_file",
]

EVENTS_MAGIC = b"SIRBEVTS"
SNAPSHOTS_MAGIC = b"SIRBSNAP"
FORMAT_VERSION = 1
_EVENT_DTYPE = np.dtype([("time", "<f8"), ("kind", "u1"), ("site", "<u4")])


class CorruptFileError(RuntimeError):
    """A persisted file failed its hash, magic, or length check."""


def sha256_file(path: Path) -> str:
    digest = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce and verify a run directory.  Every
    subcommand writes one, through ``write_manifest``.  Fields that do not
    apply to a run stay empty, such as the initial counts of a deterministic
    ``pde`` run."""

    seed: int
    version: str = __version__
    created: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    config: dict = field(default_factory=dict)
    scaling: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    initial_counts: dict = field(default_factory=dict)
    file_hashes: dict = field(default_factory=dict)
    rng_algorithm: str = RNG_ALGORITHM
    # Run telemetry, outside file_hashes: same-seed data files stay
    # byte-identical whatever is recorded here.
    stats: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # the fields as they are: dataclasses.asdict would deep-copy them
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest.  Raises CorruptFileError unless its keys are
        fields of this class, seed among them, each of its annotated type (a
        bool is not an int), and file_hashes maps plain file names to sha256
        hex digests."""
        try:
            manifest = cls(**json.loads(text))
        except (json.JSONDecodeError, TypeError) as exc:
            raise CorruptFileError(f"manifest does not match the manifest schema: {exc}") from exc
        for f in fields(cls):
            value = getattr(manifest, f.name)
            if type(value).__name__ != f.type:  # the annotation: "int", "str" or "dict"
                raise CorruptFileError(f"manifest field {f.name} is not of type {f.type}: "
                                       f"{value!r:.40}")
        for name, digest in manifest.file_hashes.items():
            if (name in ("", "..") or Path(name).name != name or type(digest) is not str
                    or len(digest) != 64 or set(digest) - set("0123456789abcdef")):
                raise CorruptFileError(f"manifest lists {name!r} with digest {digest!r:.70}; "
                                       "expected a plain file name and a sha256 hex digest")
        return manifest

    def verify(self, directory: Path, skip: Sequence[str] = ()):
        """Check every recorded hash, but those of ``skip``, against the file
        on disk, reading it a chunk at a time."""
        for name in self.file_hashes:
            if name not in skip:
                self._check(name, sha256_file(self._listed_path(directory, name)))

    def read_verified(self, directory: Path, name: str) -> bytes:
        """The bytes of the listed file ``name``, read once and checked
        against its hash: a parser of them reads exactly what was verified,
        whatever happens to the file meanwhile."""
        raw = self._listed_path(directory, name).read_bytes()
        self._check(name, _sha256(raw).hexdigest())
        return raw

    def _listed_path(self, directory: Path, name: str) -> Path:
        path = Path(directory) / name
        if not path.is_file():
            raise CorruptFileError(
                f"{name} listed in manifest but missing or not a regular file on disk")
        return path

    def _check(self, name: str, actual: str):
        expected = self.file_hashes[name]
        if actual != expected:
            raise CorruptFileError(
                f"{name} failed its hash check (expected {expected[:12]}..., "
                f"got {actual[:12]}...)"
            )


def write_manifest(directory, files: Sequence[str], seed: int, config: dict, stats: dict,
                   params: Optional[EpidemicParams] = None,
                   scaling: Optional[ScalingParams] = None,
                   initial: Optional[SystemState] = None,
                   rng_algorithm: str = RNG_ALGORITHM) -> RunManifest:
    """The one writer of manifest.json: hash ``files`` of ``directory`` and
    record them there with the run's seed, config echo and stats.  Of
    ``params``, ``scaling`` and the ``initial`` counts, each given one is
    recorded and each field of one not given stays empty."""
    directory = Path(directory)
    tc = params.transport if params is not None else None
    manifest = RunManifest(
        seed=seed, config=config, stats=stats, rng_algorithm=rng_algorithm,
        params={} if params is None else {
            "mu": params.mu, "alpha": params.alpha, "gamma": params.gamma,
            "rho": params.rho, "beta": params.beta, "p_over_w": params.p_over_w,
            "mu_b": params.mu_b, "ell": tc.ell, "p_out": tc.p_out,
            # derived, echoed for the record
            "bias": tc.bias, "nu": tc.nu, "diffusion": tc.diffusion,
        },
        scaling={} if scaling is None else {
            "n_sites": scaling.n_sites, "h": scaling.h, "k": scaling.k},
        initial_counts={} if initial is None else {
            c.lower(): row.tolist() for c, row in zip(COMPARTMENTS, initial.counts)},
        file_hashes={name: sha256_file(directory / name) for name in files},
    )
    (directory / "manifest.json").write_text(manifest.to_json())
    return manifest


# Rows per block of a CSV body: a block's values and text are all that are
# held at once, however long the table.
_CSV_BLOCK = 256


def _write_csv(path, header: str, rows: Sequence[str], table: np.ndarray):
    """Write a CSV as csv.writer would, formatting the body a block of rows
    at a time.

    ``table`` is (blocks, rows per block, columns); every row of block b is
    formatted with the template ``rows[b]``, which ends in "\\r\\n" and may
    hold a literal field such as the block's name."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for row, block in zip(rows, table):
            for a in range(0, len(block), _CSV_BLOCK):
                part = block[a : a + _CSV_BLOCK]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))


def _sample_site_table(times: Sequence[float], values: np.ndarray) -> np.ndarray:
    """(..., n_times, n, 2 + columns) table of (time, 1-based site, values)
    rows from (..., n_times, n, columns) values."""
    table = np.empty(values.shape[:-1] + (2 + values.shape[-1],))
    table[..., 0] = np.asarray(times, dtype=float)[:, None]
    table[..., 1] = np.arange(1, values.shape[-2] + 1)
    table[..., 2:] = values
    return table


def write_density_csv(path, times: Sequence[float], densities: np.ndarray):
    """Write (n_samples, 4, n) densities as (time, site, S, I, R, B) rows,
    sites 1-based: the trajectory schema of every density output, sampled
    or deterministic."""
    table = _sample_site_table(times, densities.transpose(0, 2, 1))
    _write_csv(path, "time,site,S,I,R,B", ["%.17g,%d,%.17g,%.17g,%.17g,%.17g\r\n"],
               table.reshape(1, -1, 6))


def _snapshot_frame(n_sites: int) -> np.dtype:
    """One sample of snapshots.bin: its time, then its (4, n_sites) counts."""
    return np.dtype([("time", "<f8"), ("counts", "<u8", (4, n_sites))])


def _write_snapshots_bin(path: Path, traj: Trajectory):
    n_samples, _, n = traj.counts.shape
    frames = np.empty(n_samples, dtype=_snapshot_frame(n))
    frames["time"] = traj.sample_times
    frames["counts"] = traj.counts
    with open(path, "wb") as fh:
        fh.write(SNAPSHOTS_MAGIC)
        fh.write(struct.pack("<BII", FORMAT_VERSION, n, n_samples))
        fh.write(frames)


def _read_snapshots_bin(manifest: RunManifest, directory: Path) -> tuple[np.ndarray, np.ndarray]:
    """(sample times, (n_samples, 4, n) int64 counts) of the snapshots file
    of ``directory``, parsed from the bytes that ``manifest`` verified.  The
    first snapshot is the state at t = 0 to every reader, so a grid that is
    empty or does not strictly increase from exactly 0 is corrupt."""
    path = directory / "snapshots.bin"
    raw = manifest.read_verified(directory, path.name)
    head = len(SNAPSHOTS_MAGIC) + 1 + 8
    if len(raw) < head or raw[: len(SNAPSHOTS_MAGIC)] != SNAPSHOTS_MAGIC:
        raise CorruptFileError(f"{path} is not a snapshots file")
    version = raw[len(SNAPSHOTS_MAGIC)]
    if version != FORMAT_VERSION:
        raise CorruptFileError(f"unsupported snapshots format version {version}")
    n, n_samples = struct.unpack_from("<II", raw, len(SNAPSHOTS_MAGIC) + 1)
    frame = _snapshot_frame(n)
    if len(raw) != head + n_samples * frame.itemsize:
        raise CorruptFileError(f"{path} is truncated or padded")
    frames = np.frombuffer(raw, dtype=frame, count=n_samples, offset=head)
    try:
        times = _increasing_grid(frames["time"].astype(np.float64))
    except ValueError as err:
        raise CorruptFileError(f"{path}: {err}") from err
    if times[0] != 0.0:
        raise CorruptFileError(f"{path}: sample times must start at t = 0")
    return times, frames["counts"].astype(np.int64)


def _write_events_bin(path: Path, log: EventLog):
    arr = np.empty(len(log), dtype=_EVENT_DTYPE)
    arr["time"] = log.times
    arr["kind"] = log.kinds
    arr["site"] = log.sites
    with open(path, "wb") as fh:
        fh.write(EVENTS_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(arr)


def _read_events_bin(manifest: RunManifest, directory: Path) -> EventLog:
    """The event log file of ``directory``, parsed from the bytes that
    ``manifest`` verified."""
    path = directory / "events.bin"
    raw = manifest.read_verified(directory, path.name)
    head = len(EVENTS_MAGIC) + 1
    if len(raw) < head or raw[: len(EVENTS_MAGIC)] != EVENTS_MAGIC:
        raise CorruptFileError(f"{path} is not an event log file")
    version = raw[len(EVENTS_MAGIC)]
    if version != FORMAT_VERSION:
        raise CorruptFileError(f"unsupported event log format version {version}")
    body = len(raw) - head
    if body % _EVENT_DTYPE.itemsize != 0:
        raise CorruptFileError(f"{path} is truncated (partial event frame)")
    arr = np.frombuffer(raw, dtype=_EVENT_DTYPE, offset=head)
    bad = np.flatnonzero(arr["kind"] >= N_EVENT_KINDS)
    if bad.size:
        raise CorruptFileError(
            f"{path} holds kind byte {arr['kind'][bad[0]]} at event {bad[0]}; "
            f"kinds run 0..{N_EVENT_KINDS - 1}"
        )
    return EventLog(
        times=arr["time"].astype(np.float64),
        kinds=arr["kind"].astype(np.uint8),
        sites=arr["site"].astype(np.uint32),
    )


def write_trajectory(
    directory,
    traj: Trajectory,
    params: EpidemicParams,
    scaling: ScalingParams,
    config_echo: Optional[dict] = None,
) -> RunManifest:
    """Persist one trajectory into a run directory (created if needed).

    Returns the manifest, which is also written as manifest.json.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_density_csv(directory / "trajectory.csv", traj.sample_times,
                      traj.densities(scaling))
    _write_snapshots_bin(directory / "snapshots.bin", traj)
    files = ["trajectory.csv", "snapshots.bin"]
    if traj.event_log is not None:
        _write_events_bin(directory / "events.bin", traj.event_log)
        files.append("events.bin")
    return write_manifest(directory, files, traj.seed, config_echo or {}, dict(traj.stats),
                          params, scaling, traj.initial, traj.rng_algorithm)


def read_trajectory(directory) -> tuple[Trajectory, RunManifest]:
    """Load a persisted run after verifying all file hashes.  Raises
    CorruptFileError unless the manifest lists snapshots.bin, and events.bin
    too when that file exists: a file the manifest does not list is never
    read unverified.  Each of those two is read once, and its hash checked
    on the very bytes that are then parsed."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFileError(f"no manifest.json in {directory}")
    manifest = RunManifest.from_json(manifest_path.read_text())
    listed = manifest.file_hashes
    has_log = (directory / "events.bin").exists()
    if "snapshots.bin" not in listed or (has_log and "events.bin" not in listed):
        raise CorruptFileError(
            f"manifest in {directory} must list snapshots.bin, and events.bin when present"
        )
    # a parsed file is hashed as it is read for parsing, below
    parsed = ("snapshots.bin", "events.bin") if has_log else ("snapshots.bin",)
    manifest.verify(directory, skip=parsed)
    times, counts = _read_snapshots_bin(manifest, directory)
    log = _read_events_bin(manifest, directory) if has_log else None
    traj = Trajectory(
        sample_times=times,
        counts=counts,
        event_log=log,
        seed=manifest.seed,
        rng_algorithm=manifest.rng_algorithm,
        stats=dict(manifest.stats),
    )
    return traj, manifest


def write_convergence_report(directory, report: ConvergenceReport):
    """Emit report_distances.csv (rung, replica, distance) and
    report_summary.csv (per-rung quartiles)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rungs = report.rungs
    distances = np.array([r.distances for r in rungs])  # (rungs, replicas)
    replica = np.broadcast_to(np.arange(distances.shape[1]), distances.shape)
    _write_csv(directory / "report_distances.csv", "rung,n_sites,h,k,replica,distance",
               [f"{idx},{r.n_sites},{r.h},{r.k},%d,%.17g\r\n" for idx, r in enumerate(rungs)],
               np.stack([replica, distances], axis=-1))
    summary = np.array([
        (idx, r.n_sites, r.h, r.k, r.median, r.q25, r.q75, r.rounding_error, r.ball_exits)
        for idx, r in enumerate(rungs)
    ], dtype=float)
    _write_csv(directory / "report_summary.csv",
               "rung,n_sites,h,k,median,q25,q75,rounding_error,ball_exits",
               ["%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%d\r\n"], summary[None])


def write_martingale_csv(path, times: Sequence[float], z: np.ndarray):
    """Residual fields Z of one replica, (n_times, 4, n) on the grid
    ``times``, keyed by (time, site, compartment).  ``diagnose`` writes
    replica 0's path here; its compensator report pools all replicas."""
    table = _sample_site_table(times, z.transpose(1, 0, 2)[..., None])
    _write_csv(path, "time,site,compartment,z",
               [f"%.17g,%d,{name},%.17g\r\n" for name in COMPARTMENTS],
               table.reshape(len(COMPARTMENTS), -1, 3))


def write_compensator_csv(path, times: Sequence[float], residuals: np.ndarray):
    """Replica-mean residuals and z-scores keyed by (time, site, family),
    from the (n_replicas, n_times, 6, n) observed minus predicted jump sums
    on the grid ``times``.

    A cell with zero spread has z-score 0 when its mean is 0 and the sign of
    its mean times infinity otherwise, so for every sigma such a cell has
    |z| <= sigma exactly when ``pass_fractions`` passes it."""
    mean, se = replica_mean_se(residuals)  # (n_times, 6, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where((mean == 0.0) & (se == 0.0), 0.0, mean / se)
    values = np.stack([mean, se, z], axis=-1).transpose(1, 0, 2, 3)
    table = _sample_site_table(times, values)
    _write_csv(path, "time,site,family,mean_residual,stderr,zscore",
               [f"%.17g,%d,{fam},%.17g,%.17g,%.6g\r\n" for fam in FAMILIES],
               table.reshape(len(FAMILIES), -1, 5))


# ---------------------------------------------------------------------------
# Replay

# Events per chunk of the replay: its working arrays take about a hundred
# bytes per event, so chunking keeps its memory flat in the log length.
_REPLAY_CHUNK = 2048


def _check_sources(
    counts: np.ndarray, part: EventLog, n: int,
    event: np.ndarray, cell: np.ndarray, delta: np.ndarray,
):
    """Raise ValueError, as apply_event would, unless every source cell of
    every event in ``part`` holds at least one count just before the event.
    ``counts`` are the flat (4n,) counts before the first event of ``part``
    and (event, cell, delta) its ``log_entries``.

    Source queries and count deltas are sorted by (cell, event), each
    event's queries ahead of its own deltas, so the exclusive prefix sum of
    the deltas within a cell is the count each query sees."""
    q_event, q_cell, need = log_entries(part, n, SOURCES)
    all_event = np.concatenate([q_event, event])
    all_cell = np.concatenate([q_cell, cell])
    is_query = np.arange(all_cell.size) < q_cell.size
    order = np.argsort((all_cell * len(part) + all_event) * 2 + ~is_query)
    all_event, all_cell, is_query = all_event[order], all_cell[order], is_query[order]
    step = np.concatenate([np.zeros_like(need), delta])[order]
    before = np.cumsum(step) - step
    first = np.flatnonzero(np.diff(all_cell, prepend=-1))
    before -= np.repeat(before[first], np.diff(first, append=all_cell.size))
    seen = counts[all_cell] + before
    needed = np.concatenate([need, np.zeros_like(delta)])[order]
    short = np.flatnonzero(is_query & (seen < needed))
    if short.size:
        bad = short[np.argmin(all_event[short])]
        kind = EventKind(int(part.kinds[all_event[bad]]))
        comp, site = divmod(int(all_cell[bad]), n)
        raise ValueError(
            f"{kind.name} at site {site} requires {COMPARTMENTS[comp].lower()}_counts >= 1 "
            f"(got {int(seen[bad])}); zero-propensity event applied"
        )


def replay_trajectory(
    initial: SystemState, log: EventLog, sample_times: Sequence[float]
) -> list[SystemState]:
    """Replay with snapshots at the given times (right-continuous, matching
    the simulator's convention): each snapshot is the initial counts plus
    the deltas of every event at or before its time.  The snapshots are
    read-only views of the rows of one (n_samples, 4, n) int64 array.

    Checks what apply_event checks, for every event: a known kind, a site
    on the lattice, and a source count of at least one just before it.
    The sample times must strictly increase; the last may be +inf.
    """
    grid = _increasing_grid(sample_times)
    n = initial.n_sites
    initial_counts = initial.counts.ravel()
    counts = initial_counts.copy()
    # row g: deltas of the events that snapshot g is the first to see
    binned = np.zeros((grid.size + 1, counts.size), dtype=np.int64)
    for a in range(0, len(log), _REPLAY_CHUNK):
        b = a + _REPLAY_CHUNK
        part = EventLog(log.times[a:b], log.kinds[a:b], log.sites[a:b])
        event, cell, delta = log_entries(part, n)
        _check_sources(counts, part, n, event, cell, delta)
        np.add.at(counts, cell, delta)
        segment = np.searchsorted(grid, part.times, side="left")[event]
        np.add.at(binned, (segment, cell), delta)
    snaps = initial_counts + np.cumsum(binned[: grid.size], axis=0)
    return _state_views(snaps.reshape(grid.size, 4, n))
