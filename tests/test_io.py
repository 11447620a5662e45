"""Round trips, corruption detection, replay, and a pinned regression run."""

import builtins
import csv
import hashlib
import io as stdio
import json
import math
import os
import shutil
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sirb_lattice import io as run_io
from sirb_lattice.io import (
    _REPLAY_CHUNK,
    CorruptFileError,
    RunManifest,
    read_trajectory,
    replay_trajectory,
    sha256_file,
    write_compensator_csv,
    write_convergence_report,
    write_density_csv,
    write_martingale_csv,
    write_trajectory,
)
from sirb_lattice.diagnostics import (
    FAMILIES,
    ConvergenceReport,
    LadderRung,
    Sweep,
    pass_fractions,
    sweep_log,
)
from sirb_lattice.lattice import TransportCoefficients
from sirb_lattice.stochastic import (
    RNG_ALGORITHM,
    EpidemicParams,
    EventKind,
    EventLog,
    ScalingParams,
    SystemState,
    Trajectory,
    apply_event,
    simulate_ssa,
)

# Terminal state of the pinned regression run below, under the draw order
# named by RNG_ALGORITHM; it changes only with that label.
GOLDEN_TERMINAL_SHA256 = (
    "70b5fe4e82d1340b874558ddec9544062a516b7e3087ba23c6cbf7f7401b231b"
)


def make_params(n=4):
    return EpidemicParams(
        mu=0.2, alpha=0.15, gamma=0.6, rho=0.3, beta=1.2, p_over_w=0.8,
        mu_b=0.5, transport=TransportCoefficients(0.5, 0.7, n),
    )


def sample_run(record_events=True, seed=31):
    params = make_params()
    scaling = ScalingParams(4, 50, 50)
    state = SystemState.from_counts(
        np.full(4, 45), np.full(4, 5), np.zeros(4, int), np.full(4, 25)
    )
    traj = simulate_ssa(state, 1.0, np.linspace(0, 1, 5), params, scaling,
                        seed=seed, record_events=record_events)
    return traj, params, scaling


# ---------------------------------------------------------------------------
# Round trips

def test_write_read_round_trip(tmp_path):
    traj, params, scaling = sample_run()
    manifest = write_trajectory(tmp_path, traj, params, scaling,
                                config_echo={"note": "test"})
    loaded, manifest2 = read_trajectory(tmp_path)
    assert np.array_equal(loaded.sample_times, traj.sample_times)
    assert len(loaded.states) == len(traj.states)
    for a, b in zip(loaded.states, traj.states):
        assert a == b
    assert loaded.event_log == traj.event_log
    assert manifest2.seed == traj.seed
    assert manifest2.config == {"note": "test"}
    assert manifest2.version == manifest.version
    assert set(manifest.file_hashes) == {"trajectory.csv", "snapshots.bin", "events.bin"}


def test_round_trip_without_event_log(tmp_path):
    traj, params, scaling = sample_run(record_events=False)
    write_trajectory(tmp_path, traj, params, scaling)
    loaded, _ = read_trajectory(tmp_path)
    assert loaded.event_log is None
    assert loaded.final == traj.final


def test_manifest_echoes_derived_transport(tmp_path):
    traj, params, scaling = sample_run()
    manifest = write_trajectory(tmp_path, traj, params, scaling)
    tc = params.transport
    assert manifest.params["nu"] == pytest.approx(tc.nu)
    assert manifest.params["diffusion"] == pytest.approx(tc.diffusion)
    assert manifest.rng_algorithm == RNG_ALGORITHM


def test_manifest_records_events_by_kind(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    stats = json.loads((tmp_path / "manifest.json").read_text())["stats"]
    frames = ((tmp_path / "events.bin").stat().st_size - 9) // 13
    assert stats["stream"] == 0
    assert len(stats["events_by_kind"]) == len(EventKind)
    assert sum(stats["events_by_kind"]) == stats["n_events"] == frames > 0


def test_manifest_json_matches_the_dataclass_as_dict():
    manifest = RunManifest(
        seed=7, config={"run": {"replicas": 2}, "scaling": {"ladder": [[8, 10, 10]]}},
        stats={"events_by_kind": [3, 0, 1], "rungs": [{"n_events": 4, "wall": 0.5}]},
    )
    assert manifest.to_json() == json.dumps(asdict(manifest), indent=2, sort_keys=True)


def test_run_directory_from_an_older_rng_contract(tmp_path):
    # A run written before the versioned label (and before stats) still
    # verifies, keeps its label, and replays to its own snapshots.
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["rng_algorithm"] = "philox4x64"
    del manifest["stats"]
    path.write_text(json.dumps(manifest))
    loaded, old = read_trajectory(tmp_path)
    assert old.rng_algorithm == loaded.rng_algorithm == "philox4x64"
    assert old.stats == {}
    snaps = replay_trajectory(loaded.initial, loaded.event_log, loaded.sample_times)
    assert snaps == loaded.states
    # and a rewrite of it keeps that label
    rewritten = write_trajectory(tmp_path / "again", loaded, params, scaling)
    assert rewritten.rng_algorithm == "philox4x64"


def test_truncated_events_detected(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "events.bin"
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    rehash(tmp_path)
    with pytest.raises(CorruptFileError, match="partial event frame"):
        read_trajectory(tmp_path)


def test_tampered_csv_detected(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "trajectory.csv"
    text = path.read_text().replace("0.9", "0.8", 1)
    path.write_text(text)
    with pytest.raises(CorruptFileError, match="hash"):
        read_trajectory(tmp_path)


def test_missing_manifest_detected(tmp_path):
    with pytest.raises(CorruptFileError, match="manifest"):
        read_trajectory(tmp_path)


def test_wrong_magic_detected(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    # swap the two binary payloads: hashes still listed, magic now wrong
    ev = (tmp_path / "events.bin").read_bytes()
    sn = (tmp_path / "snapshots.bin").read_bytes()
    (tmp_path / "events.bin").write_bytes(sn)
    (tmp_path / "snapshots.bin").write_bytes(ev)
    with pytest.raises(CorruptFileError):
        read_trajectory(tmp_path)


@pytest.mark.parametrize("size", [0, 1, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5])
def test_sha256_file_is_hashlibs_digest_at_the_read_boundaries(tmp_path, size):
    # sha256_file reads 1 MiB at a time through CPython's built-in SHA-256;
    # the goldens and every manifest hold hashlib's digests
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_read_parses_the_bytes_it_verified(tmp_path, monkeypatch):
    # events.bin loses its last frame on disk as soon as it is first
    # opened, while that first reader still sees the whole file: a read
    # that opened it again to parse it would parse bytes it never verified
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    events = tmp_path / "events.bin"
    whole = events.read_bytes()
    real_open = stdio.open

    def open_then_shorten(file, *args, **kwargs):
        if (isinstance(file, (str, Path)) and Path(file) == events
                and events.stat().st_size == len(whole)):
            os.truncate(events, len(whole) - 13)
            return stdio.BytesIO(whole)
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_then_shorten)
        patch.setattr(stdio, "open", open_then_shorten)
        loaded, _ = read_trajectory(tmp_path)
    assert events.stat().st_size == len(whole) - 13
    assert loaded.event_log == traj.event_log


def rehash(directory):
    """Record the current hash of every listed file, so that a corruption
    passes the hash check and reaches the parser."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["file_hashes"] = {
        name: sha256_file(directory / name) for name in manifest["file_hashes"]
    }
    path.write_text(json.dumps(manifest))


def test_out_of_range_kind_byte_detected(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "events.bin"
    raw = bytearray(path.read_bytes())
    raw[9 + 13 * 3 + 8] = 14  # kind byte of the fourth frame
    path.write_bytes(bytes(raw))
    rehash(tmp_path)
    with pytest.raises(CorruptFileError, match="kind byte 14"):
        read_trajectory(tmp_path)


@pytest.mark.parametrize("name", ["snapshots.bin", "events.bin"])
def test_file_missing_from_manifest_is_not_read(tmp_path, name):
    # A file the manifest does not list cannot be verified, so a flipped
    # byte in it would be read back unnoticed.
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["file_hashes"][name]
    path.write_text(json.dumps(manifest))
    raw = bytearray((tmp_path / name).read_bytes())
    raw[22] ^= 0x01  # in the second event's time, or in the first sample's time
    (tmp_path / name).write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="must list snapshots.bin"):
        read_trajectory(tmp_path)


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_manifest_schema_mismatch_detected(tmp_path, edit):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    if edit == "unknown":
        manifest["bogus"] = 1
    else:
        del manifest["seed"]
    path.write_text(json.dumps(manifest))
    rehash(tmp_path)
    with pytest.raises(CorruptFileError, match="manifest"):
        read_trajectory(tmp_path)


# Manifest edits off the schema.  Every one must raise CorruptFileError, and
# all but "subdirectory", which only a look at the disk can see, from
# RunManifest.from_json itself.
OFF_SCHEMA = {
    "file_hashes-int": lambda m: m.update(file_hashes=5),
    "file_hashes-list": lambda m: m.update(file_hashes=list(m["file_hashes"])),
    "digests-int": lambda m: m.update(file_hashes=dict.fromkeys(m["file_hashes"], 7)),
    "stats-list": lambda m: m.update(stats=[1]),
    "seed-str": lambda m: m.update(seed="x"),
    "seed-bool": lambda m: m.update(seed=True),
    "params-list": lambda m: m.update(params=[]),
    "config-str": lambda m: m.update(config="x"),
    "rng_algorithm-int": lambda m: m.update(rng_algorithm=5),
    # a copy of trajectory.csv outside the run directory, with its digest
    "outside": lambda m: m["file_hashes"].update(
        {"../base/trajectory.csv": m["file_hashes"]["trajectory.csv"]}),
    "subdirectory": lambda m: m["file_hashes"].update(sub="0" * 64),
}


@pytest.mark.parametrize("edit", OFF_SCHEMA.values(), ids=OFF_SCHEMA.keys())
def test_off_schema_manifest_raises_corrupt_file_error(tmp_path, edit):
    run_dir = tmp_path / "run"
    traj, params, scaling = sample_run()
    write_trajectory(run_dir, traj, params, scaling)
    (run_dir / "sub").mkdir()
    (tmp_path / "base").mkdir()
    shutil.copy(run_dir / "trajectory.csv", tmp_path / "base")
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError):
        read_trajectory(run_dir)
    if edit is not OFF_SCHEMA["subdirectory"]:
        with pytest.raises(CorruptFileError, match="manifest"):
            RunManifest.from_json(path.read_text())


def test_manifest_with_empty_scaling_reads_back(tmp_path):
    # converge writes "scaling": {}, since each rung has its own lattice
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["scaling"] = {}
    path.write_text(json.dumps(manifest))
    loaded, manifest = read_trajectory(tmp_path)
    assert manifest.scaling == {}
    assert loaded.counts.tolist() == traj.counts.tolist()


def test_event_frame_layout(tmp_path):
    # magic (8 bytes) + version (1) + 13-byte frames
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    raw = (tmp_path / "events.bin").read_bytes()
    assert raw[:8] == b"SIRBEVTS"
    assert raw[8] == 1
    assert (len(raw) - 9) % 13 == 0
    assert (len(raw) - 9) // 13 == len(traj.event_log)


@pytest.mark.parametrize("n", [3, 256])
def test_snapshot_frame_layout(tmp_path, n):
    # magic, version byte, u32 n_sites, u32 n_samples, then per sample an
    # f64 time and the S, I, R, B counts as u64; the reference packs frame
    # by frame what the writer packs as one block
    rng = np.random.default_rng(n)
    times = np.array([0.0, 1.0 / 3.0, 0.5, 1.0])
    counts = rng.integers(0, 2**40, size=(times.size, 4, n))
    traj = Trajectory(times, counts, None, seed=0)
    write_trajectory(tmp_path, traj, make_params(n), ScalingParams(n, 50, 50))
    expected = b"SIRBSNAP" + struct.pack("<BII", 1, n, times.size)
    for t, frame in zip(times, counts):
        expected += struct.pack("<d", t) + struct.pack(f"<{4 * n}Q", *frame.ravel().tolist())
    path = tmp_path / "snapshots.bin"
    assert path.read_bytes() == expected
    loaded, _ = read_trajectory(tmp_path)
    assert np.array_equal(loaded.sample_times, times)
    assert loaded.counts.dtype == np.int64 and np.array_equal(loaded.counts, counts)
    for raw in (expected[:-1], expected + bytes(8)):  # truncated, padded
        path.write_bytes(raw)
        rehash(tmp_path)
        with pytest.raises(CorruptFileError, match="truncated or padded"):
            read_trajectory(tmp_path)


@pytest.mark.parametrize("edit", ["no samples", "reversed", "shifted"])
def test_snapshot_grid_that_no_run_writes_is_rejected(tmp_path, edit):
    # the sweep and the replay take the first snapshot as the state at
    # t = 0, so a grid that is empty, or does not strictly increase from
    # exactly 0, must not read back
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    path = tmp_path / "snapshots.bin"
    raw = path.read_bytes()
    size = (len(raw) - 17) // traj.sample_times.size
    frames = [raw[at:at + size] for at in range(17, len(raw), size)]
    frames = {
        "no samples": [],
        "reversed": frames[::-1],
        "shifted": [struct.pack("<d", t + 0.5) + frame[8:]
                    for t, frame in zip(traj.sample_times, frames)],
    }[edit]
    n_sites = traj.initial.n_sites
    path.write_bytes(raw[:9] + struct.pack("<II", n_sites, len(frames)) + b"".join(frames))
    rehash(tmp_path)
    with pytest.raises(CorruptFileError, match="sample times"):
        read_trajectory(tmp_path)


# ---------------------------------------------------------------------------
# Replay

def test_replay_empty_log_returns_initial():
    state = SystemState.from_counts(*(np.full(4, 3) for _ in range(4)))
    log = EventLog(np.empty(0), np.empty(0, dtype=np.uint8),
                   np.empty(0, dtype=np.uint32))
    assert replay_trajectory(state, log, [math.inf])[0] == state


def test_replay_single_event():
    state = SystemState.from_counts(*(np.full(4, 3) for _ in range(4)))
    log = EventLog(np.array([0.1]),
                   np.array([int(EventKind.RECOVERY)], dtype=np.uint8),
                   np.array([2], dtype=np.uint32))
    final = replay_trajectory(state, log, [math.inf])[0]
    assert final == apply_event(state, EventKind.RECOVERY, 2)


def test_replay_reproduces_simulated_snapshots():
    traj, params, scaling = sample_run()
    final = replay_trajectory(traj.initial, traj.event_log, [math.inf])[0]
    assert final == traj.final
    snaps = replay_trajectory(traj.initial, traj.event_log, traj.sample_times)
    for a, b in zip(snaps, traj.states):
        assert a == b


@pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0]])
def test_replay_rejects_unsorted_or_repeated_sample_times(grid):
    traj, _, _ = sample_run()
    with pytest.raises(ValueError, match="strictly increasing"):
        replay_trajectory(traj.initial, traj.event_log, grid)


def test_replay_detects_mismatched_log():
    state = SystemState.from_counts(
        np.full(4, 3), np.zeros(4, int), np.zeros(4, int), np.zeros(4, int)
    )
    log = EventLog(np.array([0.1]),
                   np.array([int(EventKind.BACTERIA_DEATH)], dtype=np.uint8),
                   np.array([0], dtype=np.uint32))
    with pytest.raises(ValueError):
        replay_trajectory(state, log, [math.inf])[0]


@pytest.mark.parametrize("kind, site", [(14, 0), (255, 0), (0, 4), (12, 2**32 - 1)])
def test_replay_rejects_unknown_kind_or_site(kind, site):
    state = SystemState.from_counts(*(np.full(4, 3) for _ in range(4)))
    log = EventLog(np.array([0.1, 0.2]),
                   np.array([0, kind], dtype=np.uint8),
                   np.array([1, site], dtype=np.uint32))
    with pytest.raises(ValueError, match="kind" if kind >= 14 else "site"):
        replay_trajectory(state, log, [math.inf])[0]
    with pytest.raises(ValueError):
        replay_trajectory(state, log, [0.0, 0.3])


@pytest.mark.parametrize("padding", [0, _REPLAY_CHUNK - 1])
def test_replay_detects_source_emptied_then_refilled(padding):
    # After ``padding`` harmless births, one event empties I at site 0, the
    # next needs I there (its propensity is zero), the third refills it.
    # Every running count stays nonnegative and the terminal state is valid,
    # so only a check of each event's source just before it can catch the
    # log.  With padding, the emptying event closes a replay chunk and the
    # bad one opens the next.
    state = SystemState.from_counts(
        np.array([3, 3, 3, 3]), np.array([1, 0, 0, 0]),
        np.zeros(4, int), np.array([2, 0, 0, 0]),
    )
    kinds = [EventKind.BIRTH_FROM_S] * padding + [
        EventKind.DEATH_I_NATURAL, EventKind.CONTAMINATION, EventKind.INFECTION]
    log = EventLog(np.linspace(0.1, 0.3, len(kinds)),
                   np.array([int(k) for k in kinds], dtype=np.uint8),
                   np.array([1] * padding + [0, 0, 0], dtype=np.uint32))
    message = r"CONTAMINATION at site 0 requires i_counts >= 1 \(got 0\)"
    oracle = state
    with pytest.raises(ValueError, match=message):
        for kind, site in zip(log.kinds, log.sites):
            oracle = apply_event(oracle, kind, site)
    with pytest.raises(ValueError, match=message):
        replay_trajectory(state, log, [math.inf])[0]
    with pytest.raises(ValueError, match=message):
        replay_trajectory(state, log, [0.0, 0.5])


def test_replay_trajectory_bit_identical_on_wide_lattice():
    n = 256
    params = make_params(n)
    scaling = ScalingParams(n, 100, 100)
    rng = np.random.default_rng(256)
    state = SystemState.from_counts(
        rng.integers(50, 100, n), rng.integers(0, 20, n),
        rng.integers(0, 5, n), rng.integers(0, 100, n),
    )
    grid = np.linspace(0.0, 0.1, 11)
    traj = simulate_ssa(state, 0.1, grid, params, scaling, seed=17, record_events=True)
    assert len(traj.event_log) > _REPLAY_CHUNK
    snaps = replay_trajectory(traj.initial, traj.event_log, grid)
    assert len(snaps) == len(traj.states)
    for a, b in zip(snaps, traj.states):
        assert a.counts.dtype == b.counts.dtype
        assert np.array_equal(a.counts, b.counts)
    assert replay_trajectory(traj.initial, traj.event_log, [math.inf])[0] == traj.final


def test_sampled_and_replayed_states_are_read_only_views():
    traj, _, _ = sample_run()
    before = traj.counts.copy()
    replayed = replay_trajectory(traj.initial, traj.event_log, traj.sample_times)
    for state in (traj.states[2], traj.initial, traj.final, replayed[1]):
        with pytest.raises(ValueError, match="read-only"):
            state.counts[0, 0] += 1
    assert np.array_equal(traj.counts, before)


def test_replayed_round_trip_matches_terminal_state(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path, traj, params, scaling)
    loaded, manifest = read_trajectory(tmp_path)
    initial = SystemState.from_counts(
        *(np.array(manifest.initial_counts[c]) for c in "sirb")
    )
    assert replay_trajectory(initial, loaded.event_log, [math.inf])[0] == traj.final


# ---------------------------------------------------------------------------
# CSV output

def csv_reference(times, stacks) -> bytes:
    """The trajectory CSV schema written row by row through csv.writer."""
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time", "site", "S", "I", "R", "B"])
    for t, y in zip(times, stacks):
        for j in range(y.shape[1]):
            writer.writerow([f"{t:.17g}", j + 1] + [f"{y[c, j]:.17g}" for c in range(4)])
    return buf.getvalue().encode()


def test_csv_writers_match_csv_module_reference(tmp_path):
    traj, params, scaling = sample_run()
    write_trajectory(tmp_path / "run", traj, params, scaling)
    expected = csv_reference(traj.sample_times, [s.rescaled(scaling) for s in traj.states])
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == expected

    rng = np.random.default_rng(5)
    times = np.array([0.0, 1.0 / 3.0, 0.7, 1e-300])
    stacks = [rng.exponential(size=(4, 6)) * 10.0 ** rng.integers(-20, 20) for _ in times]
    stacks[0][1, 2] = -0.0
    stacks[1][3, 0] = 1e17
    write_density_csv(tmp_path / "det.csv", times, np.stack(stacks))
    assert (tmp_path / "det.csv").read_bytes() == csv_reference(times, stacks)


def rows_reference(header, rows) -> bytes:
    """``rows`` written after ``header`` through csv.writer."""
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def report_reference(times, z, observed, predicted, report) -> tuple[bytes, ...]:
    """The diagnose and converge reports written row by row through
    csv.writer.  A z-score with zero spread is 0 for a zero mean and the
    sign of the mean times infinity otherwise."""
    martingale = rows_reference(
        ["time", "site", "compartment", "z"],
        [[f"{t:.17g}", j + 1, name, f"{z[ti, ci, j]:.17g}"]
         for ci, name in enumerate("SIRB")
         for ti, t in enumerate(times) for j in range(z.shape[2])])

    rows = []
    for fi, fam in enumerate(("S", "I", "R", "B", "B_cross_plus", "B_cross_minus")):
        res = observed[:, :, fi] - predicted[:, :, fi]
        mean = res.mean(axis=0)
        se = res.std(axis=0, ddof=1) / np.sqrt(res.shape[0])
        for ti, t in enumerate(times):
            for j in range(mean.shape[1]):
                m, s = mean[ti, j], se[ti, j]
                zscore = m / s if s > 0 else (0.0 if m == 0 else math.copysign(math.inf, m))
                rows.append([f"{t:.17g}", j + 1, fam, f"{m:.17g}", f"{s:.17g}",
                             f"{zscore:.6g}"])
    compensators = rows_reference(
        ["time", "site", "family", "mean_residual", "stderr", "zscore"], rows)

    distances = rows_reference(
        ["rung", "n_sites", "h", "k", "replica", "distance"],
        [[idx, r.n_sites, r.h, r.k, rep, f"{d:.17g}"]
         for idx, r in enumerate(report.rungs) for rep, d in enumerate(r.distances)])
    summary = rows_reference(
        ["rung", "n_sites", "h", "k", "median", "q25", "q75", "rounding_error", "ball_exits"],
        [[idx, r.n_sites, r.h, r.k, f"{r.median:.17g}", f"{r.q25:.17g}", f"{r.q75:.17g}",
          f"{r.rounding_error:.17g}", r.ball_exits] for idx, r in enumerate(report.rungs)])
    return martingale, compensators, distances, summary


def test_report_writers_match_csv_module_reference(tmp_path):
    rng = np.random.default_rng(6)
    times = np.array([0.0, 1.0 / 3.0, 0.7, 1e-300])
    n_rep, n = 3, 5

    def field(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)

    z = field(4, len(times), n)
    z[:, 0] = 0.0
    z[1, 2, 3] = -0.0
    z = z.transpose(1, 0, 2)
    observed = field(n_rep, len(times), len(FAMILIES), n)
    predicted = field(n_rep, len(times), len(FAMILIES), n)
    observed[:, 0] = predicted[:, 0] = 0.0  # zero spread and mean: z-score 0
    observed[:, 1, 1, 2] = 1e17  # zero spread, positive mean: +inf
    predicted[:, 1, 1, 2] = 0.5
    observed[:, 2, 4, 0] = -1.0  # zero spread, negative mean: -inf
    predicted[:, 2, 4, 0] = 0.0

    report = ConvergenceReport([
        LadderRung(n, h, k, field(3) ** 2, 0.5 / h, exits)
        for n, h, k, exits in ((8, 10, 10, 0), (16, 10**6, 10**6, 2), (8, 2**40, 2**41, 3))
    ])
    report.rungs[1].distances[1] = 1e-300

    write_martingale_csv(tmp_path / "martingale.csv", times, z)
    write_compensator_csv(tmp_path / "compensators.csv", times, observed - predicted)
    write_convergence_report(tmp_path, report)
    written = [(tmp_path / name).read_bytes() for name in (
        "martingale.csv", "compensators.csv", "report_distances.csv", "report_summary.csv")]
    assert written == list(report_reference(times, z, observed, predicted, report))
    assert b"inf" in written[1] and b"-inf" in written[1]


@pytest.mark.parametrize("block", [1, 7])
def test_csv_writers_format_a_block_of_rows_at_a_time(tmp_path, monkeypatch, block):
    # blocks that split every table, evenly or not, write the same bytes
    monkeypatch.setattr(run_io, "_CSV_BLOCK", block)
    for name in ("density", "reports"):
        (tmp_path / name).mkdir()
    test_csv_writers_match_csv_module_reference(tmp_path / "density")
    test_report_writers_match_csv_module_reference(tmp_path / "reports")


def test_report_zscores_agree_with_the_pass_test(tmp_path):
    # Quickstart rates on a small lattice: at t = 0.01 both replicas are
    # still at their initial counts, so some cells have zero spread and a
    # nonzero mean (the compensator has grown, the jumps have not).
    n, sigma = 3, 3.0
    scaling = ScalingParams(n, 10, 10)
    state = SystemState.from_counts(np.full(n, 9), np.full(n, 1), np.zeros(n, int),
                                    np.full(n, 5))
    trajs = [simulate_ssa(state, 1.0, [0.0, 0.01, 1.0], make_params(n), scaling, seed=1,
                          stream=r, record_events=True) for r in range(2)]
    check = Sweep.stack([sweep_log(t, make_params(n), scaling) for t in trajs])
    res = check.observed - check.predicted
    write_compensator_csv(tmp_path / "compensators.csv", trajs[0].sample_times, res)
    with open(tmp_path / "compensators.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [res[:, ti:ti + 1, fi:fi + 1, j:j + 1]
             for fi in range(len(FAMILIES)) for ti in range(3) for j in range(n)]
    passes = [pass_fractions(cell, ["cell"], sigma) == {"cell": 1.0} for cell in cells]
    zscores = [float(row["zscore"]) for row in rows]
    assert [abs(z) <= sigma for z in zscores] == passes
    assert any(math.isinf(z) for z, row in zip(zscores, rows) if row["family"] == "S")


# ---------------------------------------------------------------------------
# Pinned regression

def test_golden_regression_terminal_state():
    params = make_params()
    scaling = ScalingParams(4, 50, 50)
    state = SystemState.from_counts(
        np.full(4, 45), np.full(4, 5), np.zeros(4, int), np.full(4, 25)
    )
    traj = simulate_ssa(state, 1.0, [0.0, 1.0], params, scaling,
                        seed=987654321, record_events=True)
    blob = traj.final.counts.astype("<i8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_TERMINAL_SHA256
    # and the log replays to the same state
    assert replay_trajectory(state, traj.event_log, [math.inf])[0] == traj.final
