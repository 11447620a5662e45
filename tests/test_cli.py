"""Config validation and end-to-end runs of every subcommand."""

import configparser
import csv
import io as stdio
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sirb_lattice import cli, diagnostics
from sirb_lattice import io as run_io
from sirb_lattice.cli import ConfigError, main, parse_config, run
from sirb_lattice.deterministic import ReactionField, homogeneous_ode
from sirb_lattice.diagnostics import Sweep, starting_point, sweep_log
from sirb_lattice.stochastic import (
    RNG_ALGORITHM,
    EventKind,
    EventLog,
    ScalingParams,
    Trajectory,
    simulate_ssa,
)

BASE_CONFIG = """
[run]
horizon = 0.2
samples = 3
replicas = 1
seed = 4242
workers = 1
record_events = true
out = {out}

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

[scaling]
n = 4
h = 20
k = 20
{ladder}

[initial]
s = constant 0.9
i = constant 0.1
r = constant 0.0
b = constant 0.5
"""


def write_config(tmp_path, out="run_out", ladder="", extra=""):
    text = BASE_CONFIG.format(out=tmp_path / out, ladder=ladder) + extra
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Parsing and validation

def test_parse_minimal_config_applies_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[run]\nout = " + str(tmp_path / "o") + "\n")
    cfg = parse_config(path, mode="simulate")
    assert cfg.horizon == 1.0
    assert cfg.replicas == 1
    assert cfg.rates["mu"] == 0.2
    assert cfg.echo["derived"]["diffusion"] == pytest.approx(0.5 / (2 * 64))
    assert cfg.echo["version"]


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("mu = 0.2", "mu = 0.2\nmu_c = 1.0"))
    with pytest.raises(ConfigError, match="params.mu_c"):
        parse_config(path)


def test_parse_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, extra="\n[plotting]\ncolor = red\n")
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(path)


def test_parse_rejects_out_of_range_probability(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("p_out = 0.7", "p_out = 1.3")
    path.write_text(text)
    with pytest.raises(ConfigError, match="p_out.*range"):
        parse_config(path)


def test_parse_rejects_negative_rate(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("beta = 1.2", "beta = -1")
    path.write_text(text)
    with pytest.raises(ConfigError, match="beta"):
        parse_config(path)


def test_parse_rejects_varying_ratio_ladder_in_theorem1(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:40:80")
    with pytest.raises(ConfigError, match="H/K varies"):
        parse_config(path, mode="converge")


def test_parse_converge_requires_ladder(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(ConfigError, match="ladder"):
        parse_config(path, mode="converge")


def test_parse_rejects_malformed_ladder(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:20")
    with pytest.raises(ConfigError, match="n:h:k"):
        parse_config(path, mode="converge")


@pytest.mark.parametrize("out", ["runs/50%", "runs/%(seed)s"])
def test_percent_in_a_value_is_taken_as_written(tmp_path, out):
    path = write_config(tmp_path, out=out)
    assert parse_config(path).out == tmp_path / out
    assert main(["pde", "--config", str(path)]) == 0
    assert (tmp_path / out / "manifest.json").exists()


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_parse_rejects_negative_fourier_profile(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("s = constant 0.9", "s = fourier 1 2.0 0.5")
    path.write_text(text)
    with pytest.raises(ConfigError, match="dips below 0"):
        parse_config(path)


def test_parse_rejects_seed_beyond_64_bits(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("seed = 4242", f"seed = {2**64}"))
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config(path)
    path.write_text(path.read_text().replace(f"seed = {2**64}", f"seed = {2**64 - 1}"))
    assert parse_config(path).seed == 2**64 - 1


def test_workers_beyond_cpu_count_rejected_at_parse_time(tmp_path, capsys, pool_sizes,
                                                        usable_cpus):
    usable_cpus(3)
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("workers = 1", "workers = 4"))
    with pytest.raises(ConfigError, match="run.workers"):
        parse_config(path)
    path.write_text(path.read_text().replace("workers = 4", "workers = 3"))
    assert parse_config(path).workers == 3
    out = tmp_path / "many_workers"
    assert main(["simulate", "--config", str(path), "--replicas", "4", "--workers", "4",
                 "--out", str(out)]) == 2
    assert "--workers" in capsys.readouterr().err
    assert pool_sizes == [] and not out.exists()


def test_main_rejects_seed_flag_beyond_64_bits(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "big_seed"
    assert main(["simulate", "--config", str(path), "--seed", str(2**64),
                 "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--config", str(path), "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1


def test_parse_preset_shapes(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("s = constant 0.9", "s = fourier 2 0.1 0.8")
    text = text.replace("b = constant 0.5", "b = bump 0.5 0.1 0.9")
    path.write_text(text)
    cfg = parse_config(path)
    fns = cfg.initial_fns()
    x = np.linspace(0, 1, 9)
    assert np.allclose(fns[0](x), 0.8 + 0.1 * np.sin(4 * np.pi * x))
    assert fns[3](np.array([0.5]))[0] == pytest.approx(0.9)
    assert fns[3](np.array([0.0]))[0] < 0.01


def test_bump_preset_wraps_any_centre():
    # the periodic distance is taken modulo 1, so a centre off [0, 1] is the
    # same bump as its image in [0, 1]
    x = np.linspace(0, 1, 101)
    ref = cli._preset_fn(("bump", (0.2, 0.1, 1.0)))(x)
    assert ref.max() == pytest.approx(1.0)
    for centre in (2.2, -1.8):
        profile = cli._preset_fn(("bump", (centre, 0.1, 1.0)))(x)
        assert np.allclose(profile, ref, rtol=0, atol=1e-12), centre


def test_schema_block_lists_the_defaults():
    doc = cli.__doc__
    block = doc[doc.index("    [run]"):doc.index("\nUnknown keys")]
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(textwrap.dedent(block))
    assert {s: set(cp[s]) for s in cp.sections()} == {
        s: set(keys) for s, keys in cli._DEFAULTS.items()}
    for section, keys in cli._DEFAULTS.items():
        for key, default in keys.items():
            if default is not None:
                assert cp[section][key] == default, f"{section}.{key}"


# ---------------------------------------------------------------------------
# End-to-end runs

def test_simulate_writes_run_directory(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode="simulate")
    assert run(cfg) == 0
    out = cfg.out
    assert sorted(p.name for p in out.iterdir()) == [
        "events.bin", "manifest.json", "snapshots.bin", "trajectory.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4242
    assert manifest["config"]["derived"]["nu"] == pytest.approx(0.4 * 0.5 / 4)
    # densities were rounded to integer counts; the deviation is on record
    assert manifest["config"]["initial_rounding_error"] <= 0.5 / 20 + 1e-12
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "time,site,S,I,R,B"


def test_simulate_rerun_without_a_log_into_the_same_out_reads_back(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run_out"
    assert main(["simulate", "--config", str(path)]) == 0
    assert (out / "events.bin").exists()
    path.write_text(path.read_text().replace("record_events = true", "record_events = false"))
    assert main(["simulate", "--config", str(path)]) == 0
    assert not (out / "events.bin").exists()
    traj, _ = run_io.read_trajectory(out)
    assert traj.event_log is None


RERUNS = {  # test id: the first and the second command into one --out
    "1-2": ("simulate --replicas 1", "simulate --replicas 2"),
    "2-1": ("simulate --replicas 2", "simulate --replicas 1"),
    "3-2": ("simulate --replicas 3", "simulate --replicas 2"),
    "simulate-converge": ("simulate", "converge"),
    "simulate2-diagnose2": ("simulate --replicas 2", "diagnose --replicas 2"),
    "diagnose2-pde": ("diagnose --replicas 2", "pde"),
    "converge-simulate3": ("converge", "simulate --replicas 3"),
}


@pytest.mark.parametrize("first, second", RERUNS.values(), ids=RERUNS.keys())
def test_simulate_rerun_with_another_replica_count_leaves_only_listed_files(
    tmp_path, first, second
):
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:40:40")
    out = tmp_path / "run_out"
    for command in (first, second):
        assert main([*command.split(), "--config", str(path)]) == 0
    mode, *flags = second.split()
    replicas = int(flags[1]) if flags else 1
    runs = ([out / f"replica_{rep:03d}" for rep in range(replicas)]
            if mode == "simulate" and replicas > 1 else [out])
    manifests = sorted(out.rglob("manifest.json"))
    assert [m.parent for m in manifests] == runs
    listed = set(manifests)
    for manifest in manifests:
        record = run_io.RunManifest.from_json(manifest.read_text())
        record.verify(manifest.parent)
        listed |= {manifest.parent / name for name in record.file_hashes}
        if mode == "simulate":
            run_io.read_trajectory(manifest.parent)
    assert {p for p in out.rglob("*") if p.is_file()} - listed == set()
    assert {p for p in out.rglob("*") if p.is_dir()} == set(runs) - {out}


def test_rerun_deletes_only_plain_listed_files_and_skips_a_broken_manifest(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run_out"
    assert main(["pde", "--config", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["file_hashes"]["sub"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    kept = [tmp_path / "outside.txt", out / "notes.txt", out / "sub" / "notes.txt"]
    (out / "sub").mkdir()
    for user_file in kept:
        user_file.write_text("not a run file")
    assert main(["simulate", "--config", str(path), "--replicas", "2"]) == 0
    assert not (out / "trajectory.csv").exists() and not (out / "manifest.json").exists()
    kept.append(out / "replica_000" / "notes.txt")
    kept[-1].write_text("not a run file")
    (out / "manifest.json").write_text("{not json")
    off_schema = out / "replica_001" / "manifest.json"  # lists a file outside the run
    manifest = json.loads(off_schema.read_text())
    manifest["file_hashes"]["../../outside.txt"] = "0" * 64
    off_schema.write_text(json.dumps(manifest))
    assert main(["pde", "--config", str(path)]) == 0
    assert all(user_file.read_text() == "not a run file" for user_file in kept)
    assert sorted(p.name for p in (out / "replica_000").iterdir()) == ["notes.txt"]
    assert off_schema.exists()
    assert all((out / "replica_001" / name).is_file() for name in manifest["file_hashes"])
    pde = run_io.RunManifest.from_json((out / "manifest.json").read_text())
    assert list(pde.file_hashes) == ["trajectory.csv"]
    pde.verify(out)


def test_simulate_horizon_zero_single_snapshot(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("horizon = 0.2", "horizon = 0.0")
    path.write_text(text)
    cfg = parse_config(path, mode="simulate")
    run(cfg)
    rows = (cfg.out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # header + one row per site at t = 0


def test_simulate_same_seed_byte_identical(tmp_path):
    path = write_config(tmp_path, out="a")
    cfg = parse_config(path, mode="simulate")
    run(cfg)
    first = (cfg.out / "trajectory.csv").read_bytes()
    cfg2 = parse_config(path, mode="simulate")
    cfg2.out = tmp_path / "b"
    run(cfg2)
    second = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert first == second
    assert (cfg.out / "events.bin").read_bytes() == (tmp_path / "b" / "events.bin").read_bytes()


def test_run_does_not_mutate_config_file(tmp_path):
    path = write_config(tmp_path)
    before = path.read_bytes()
    cfg = parse_config(path, mode="simulate")
    run(cfg)
    assert path.read_bytes() == before


def test_simulate_multiple_replicas_in_subdirectories(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode="simulate")
    cfg.replicas = 2
    run(cfg)
    assert (cfg.out / "replica_000" / "trajectory.csv").exists()
    assert (cfg.out / "replica_001" / "trajectory.csv").exists()


def test_simulate_workers_do_not_change_results(tmp_path):
    path = write_config(tmp_path)
    hashes = {}
    for workers in (1, 2):
        cfg = parse_config(path, mode="simulate")
        cfg.replicas, cfg.workers = 3, workers
        cfg.out = tmp_path / f"workers_{workers}"
        run(cfg)
        hashes[workers] = {}
        for rep in range(3):
            directory = cfg.out / f"replica_{rep:03d}"
            manifest = run_io.RunManifest.from_json((directory / "manifest.json").read_text())
            assert set(manifest.file_hashes) == {"trajectory.csv", "snapshots.bin", "events.bin"}
            for name in manifest.file_hashes:
                hashes[workers][rep, name] = (directory / name).read_bytes()
    assert hashes[1] == hashes[2]


def test_converge_writes_reports(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:60:60")
    cfg = parse_config(path, mode="converge")
    cfg.replicas = 2
    assert run(cfg) == 0
    rows = (cfg.out / "report_distances.csv").read_text().splitlines()
    assert rows[0] == "rung,n_sites,h,k,replica,distance"
    assert len(rows) == 1 + 2 * 2  # two rungs, two replicas
    summary = (cfg.out / "report_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    assert (cfg.out / "manifest.json").exists()


def test_converge_workers_do_not_change_results(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:60:60")
    cfg = parse_config(path, mode="converge")
    cfg.replicas = 2
    run(cfg)
    serial = (cfg.out / "report_distances.csv").read_bytes()
    cfg2 = parse_config(path, mode="converge")
    cfg2.replicas = 2
    cfg2.workers = 2
    cfg2.out = tmp_path / "par"
    run(cfg2)
    assert (tmp_path / "par" / "report_distances.csv").read_bytes() == serial


def test_homogeneous_writes_series(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode="homogeneous")
    assert run(cfg) == 0
    rows = (cfg.out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + cfg.samples
    first = rows[1].split(",")
    assert float(first[2]) == pytest.approx(0.9, abs=1e-9)


def test_homogeneous_csv_matches_csv_module_reference(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode="homogeneous")
    cfg.samples = 7
    run(cfg)
    rf = ReactionField(cfg.params(), hk_ratio=cfg.h / cfg.k)
    y0 = [float(np.mean(fn(np.linspace(0.0, 1.0, 257)[:-1]))) for fn in cfg.initial_fns()]
    grid = cfg.sample_grid()
    series = homogeneous_ode(y0, cfg.horizon, rf, sample_times=grid)
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time", "site", "S", "I", "R", "B"])
    for t, row in zip(grid, series):
        writer.writerow([f"{t:.17g}", 1] + [f"{v:.17g}" for v in row])
    assert (cfg.out / "trajectory.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("mode", ["simulate", "pde", "homogeneous", "converge", "diagnose"])
def test_manifest_records_rng_algorithm(tmp_path, mode):
    path = write_config(tmp_path, ladder="ladder = 4:20:20")
    cfg = parse_config(path, mode=mode)
    assert run(cfg) == 0
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    assert manifest["rng_algorithm"] == RNG_ALGORITHM
    assert "rng_algorithm" not in manifest["file_hashes"]
    # every subcommand writes the one manifest schema, and it verifies
    loaded = run_io.RunManifest.from_json((cfg.out / "manifest.json").read_text())
    assert loaded.seed == cfg.seed and loaded.config["mode"] == mode
    assert loaded.file_hashes
    assert loaded.stats  # run telemetry, outside the hashes
    loaded.verify(cfg.out)


@pytest.mark.parametrize("mode", ["pde", "homogeneous"])
def test_integrator_counters_in_manifest_stats(tmp_path, mode):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode=mode)
    assert run(cfg) == 0
    loaded = run_io.RunManifest.from_json((cfg.out / "manifest.json").read_text())
    assert loaded.stats["n_steps"] > 0
    assert loaded.stats["clamped"] >= 0 and loaded.stats["min_value_seen"] <= 0.0
    assert list(loaded.file_hashes) == ["trajectory.csv"]


def test_converge_stats_count_each_rungs_events(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:40:40")
    cfg = parse_config(path, mode="converge")
    cfg.replicas = 3
    assert run(cfg) == 0
    rungs = run_io.RunManifest.from_json((cfg.out / "manifest.json").read_text()).stats["rungs"]
    summary = list(csv.DictReader(open(cfg.out / "report_summary.csv", newline="")))
    assert len(rungs) == len(summary) == 2
    for rung, row in zip(rungs, summary):
        assert (rung["n_sites"], rung["h"], rung["k"]) == (int(row["n_sites"]), int(row["h"]),
                                                           int(row["k"]))
        assert rung["ball_exits"] == int(row["ball_exits"])
        assert rung["rounding_error"] == float(row["rounding_error"])
        assert len(rung["n_events"]) == 3 and min(rung["n_events"]) > 0
        assert len(rung["events_by_kind"]) == len(EventKind)
        assert sum(rung["events_by_kind"]) == sum(rung["n_events"])
    # replica 1 of rung 0 draws stream 1
    state0, _, _ = starting_point(cfg.initial_fns(), ScalingParams(4, 20, 20))
    traj = simulate_ssa(state0, cfg.horizon, cfg.sample_grid(), cfg.params().with_lattice(4),
                        ScalingParams(4, 20, 20), cfg.seed, stream=1)
    assert rungs[0]["n_events"][1] == traj.stats["n_events"]


def test_read_trajectory_carries_the_run_stats(tmp_path):
    path = write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    traj, manifest = run_io.read_trajectory(tmp_path / "run_out")
    assert set(traj.stats) == {"n_events", "stream", "events_by_kind"}
    assert traj.stats == manifest.stats
    assert traj.stats["n_events"] == len(traj.event_log) > 0


def test_converge_does_not_import_numpy_ma(tmp_path):
    # np.median and np.quantile import numpy.ma on first use, which costs
    # tens of ms after the pool; the ladder report needs neither.
    path = write_config(tmp_path, ladder="ladder = 4:20:20, 4:60:60")
    code = (
        "import sys, numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit(3)\n"
        "from sirb_lattice.cli import main\n"
        f"assert main(['converge', '--config', {str(path)!r}, '--replicas', '3']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    done = run_fresh(code)
    if done.returncode == 3:
        pytest.skip("this numpy imports numpy.ma together with numpy")
    assert done.returncode == 0


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)


# hashlib maps OpenSSL (_hashlib), and concurrent.futures.process the pool
# stack: a few MiB of resident memory that a CLI process takes on only where
# it uses them
HEAVY_MODULES = ("_hashlib", "concurrent.futures.process")


def test_importing_the_cli_maps_neither_openssl_nor_the_pool_stack():
    done = run_fresh(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import sirb_lattice.cli\n"
        f"print(sorted(set({HEAVY_MODULES!r}) & (set(sys.modules) - before)))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(diagnostics.usable_cpus() < 2, reason="a pool needs 2 usable CPUs")
@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy < 2 maps OpenSSL at import, through numpy.random")
def test_a_pool_parent_never_maps_openssl(tmp_path):
    path = write_config(tmp_path)
    done = run_fresh(
        "import sys, numpy\n"
        "from sirb_lattice.cli import main\n"
        f"assert main(['diagnose', '--config', {str(path)!r}, '--replicas', '2',\n"
        "             '--workers', '2']) == 0\n"
        f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))\n"
    )
    assert done.returncode == 0, done.stderr
    # the pool ran, and only its workers hashed through OpenSSL
    assert done.stdout.splitlines()[-1] == "['concurrent.futures.process']"


def test_pde_writes_lattice_solution(tmp_path):
    path = write_config(tmp_path, extra="\n[pde]\nresolution = 8\n")
    cfg = parse_config(path, mode="pde")
    assert run(cfg) == 0
    rows = (cfg.out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + cfg.samples * 8


def test_pde_resolution_keeps_the_continuum_coefficients(tmp_path):
    # a finer lattice of the same PDE: the manifest's params carry the
    # diffusion and advection that config.derived gives for (ell, p_out, n)
    path = write_config(tmp_path, extra="\n[pde]\nresolution = 16\n")
    cfg = parse_config(path, mode="pde")
    assert run(cfg) == 0
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    assert manifest["scaling"]["n_sites"] == 16
    for key in ("diffusion", "nu"):
        assert manifest["params"][key] == pytest.approx(
            manifest["config"]["derived"][key], rel=1e-12)


def test_pde_refuses_a_resolution_that_cannot_carry_the_advection(tmp_path, capsys):
    # quickstart's transport (ell 0.5, p_out 0.7, n 8) on 3 sites needs a
    # bias of 16/15 > 1
    path = write_config(tmp_path, extra="\n[pde]\nresolution = 3\n")
    path.write_text(path.read_text().replace("n = 4", "n = 8"))
    with pytest.raises(ConfigError, match="pde.resolution"):
        parse_config(path, mode="pde")
    assert main(["pde", "--config", str(path)]) == 2
    assert "pde.resolution" in capsys.readouterr().err
    parse_config(path, mode="simulate")  # only pde mode solves at that resolution


def test_diagnose_writes_reports(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, mode="diagnose")
    cfg.replicas = 3
    assert run(cfg) == 0
    assert (cfg.out / "report_martingale.csv").exists()
    assert (cfg.out / "report_compensators.csv").exists()
    rows = (cfg.out / "report_compensators.csv").read_text().splitlines()
    assert rows[0] == "time,site,family,mean_residual,stderr,zscore"
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    stats = manifest["stats"]
    assert len(stats["n_events"]) == 3
    assert len(stats["events_by_kind"]) == len(EventKind)
    assert sum(stats["events_by_kind"]) == sum(stats["n_events"]) > 0
    assert "stats" not in manifest["file_hashes"]


def test_diagnose_rerun_with_one_replica_leaves_no_unlisted_report(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run_out"
    assert main(["diagnose", "--config", str(path), "--replicas", "2"]) == 0
    assert (out / "report_compensators.csv").exists()
    assert main(["diagnose", "--config", str(path), "--replicas", "1"]) == 0
    assert not (out / "report_compensators.csv").exists()
    manifest = run_io.RunManifest.from_json((out / "manifest.json").read_text())
    manifest.verify(out)
    assert sorted(p.name for p in out.glob("report_*")) == sorted(manifest.file_hashes)


DIAGNOSE_REPORTS = ("report_martingale.csv", "report_compensators.csv")


def test_diagnose_workers_do_not_change_results(tmp_path):
    path = write_config(tmp_path)
    outputs = {}
    for workers in (1, 2):
        cfg = parse_config(path, mode="diagnose")
        cfg.replicas, cfg.workers = 3, workers
        cfg.out = tmp_path / f"workers_{workers}"
        run(cfg)
        outputs[workers] = [(cfg.out / name).read_bytes() for name in DIAGNOSE_REPORTS]
    assert outputs[1] == outputs[2]

    # the same reports built from the same seeded trajectories in this process
    params, scaling = cfg.params(), cfg.scaling()
    state0, _, _ = starting_point(cfg.initial_fns(), scaling)
    trajs = [
        simulate_ssa(state0, cfg.horizon, cfg.sample_grid(), params, scaling,
                     seed=cfg.seed, stream=rep, record_events=True)
        for rep in range(3)
    ]
    sweep = Sweep.stack([sweep_log(t, params, scaling) for t in trajs])
    ref = tmp_path / "reference"
    ref.mkdir()
    run_io.write_martingale_csv(ref / DIAGNOSE_REPORTS[0], cfg.sample_grid(), sweep.z[0])
    run_io.write_compensator_csv(ref / DIAGNOSE_REPORTS[1], cfg.sample_grid(),
                                 sweep.observed - sweep.predicted)
    assert outputs[1] == [(ref / name).read_bytes() for name in DIAGNOSE_REPORTS]


def test_diagnose_ships_no_event_log_and_sweeps_each_log_once(tmp_path, monkeypatch,
                                                             usable_cpus):
    """Tasks and results cross a pickle round trip, as with a real pool;
    neither may hold an event log, and every replica's log is swept once."""
    pickled: set[type] = set()
    swept: list[int] = []

    class TypeRecorder(pickle.Pickler):
        def reducer_override(self, obj):
            pickled.add(type(obj))
            return NotImplemented

    def round_trip(obj):
        buf = stdio.BytesIO()
        TypeRecorder(buf).dump(obj)
        return pickle.loads(buf.getvalue())

    class PicklingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return (round_trip(fn(round_trip(job))) for job in jobs)

    sweep_log = diagnostics.sweep_log

    def counting_sweep(traj, params, scaling):
        swept.append(traj.stats["stream"])
        return sweep_log(traj, params, scaling)

    usable_cpus(3)
    monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", PicklingPool)
    monkeypatch.setattr(cli, "sweep_log", counting_sweep)
    monkeypatch.setattr(diagnostics, "sweep_log", counting_sweep)
    path = write_config(tmp_path)
    assert main(["diagnose", "--config", str(path), "--replicas", "3", "--workers", "2"]) == 0
    assert diagnostics.Sweep in pickled
    assert EventLog not in pickled and Trajectory not in pickled
    assert sorted(swept) == [0, 1, 2]


# ---------------------------------------------------------------------------
# main() entry point

def test_main_runs_simulate(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli_out")])
    assert code == 0
    assert (tmp_path / "cli_out" / "trajectory.csv").exists()


def test_main_seed_override_lands_in_manifest(tmp_path):
    path = write_config(tmp_path)
    main(["simulate", "--config", str(path), "--seed", "777",
          "--out", str(tmp_path / "o777")])
    manifest = json.loads((tmp_path / "o777" / "manifest.json").read_text())
    assert manifest["seed"] == 777


@pytest.mark.parametrize("line, flag, value, key", [
    ("workers = 64", "--workers", "1", "workers"),
    ("replicas = 0", "--replicas", "2", "replicas"),
    (f"seed = {2**64}", "--seed", "5", "seed"),
])
def test_flag_replaces_an_invalid_file_value(tmp_path, usable_cpus, line, flag, value, key):
    usable_cpus(2)
    path = write_config(tmp_path)
    path.write_text(re.sub(rf"^{key} = .*$", line, path.read_text(), flags=re.M))
    with pytest.raises(ConfigError, match=f"run.{key}"):
        parse_config(path)
    out = tmp_path / "flagged"
    assert main(["simulate", "--config", str(path), flag, value, "--out", str(out)]) == 0
    manifests = sorted(out.rglob("manifest.json"))
    assert len(manifests) == (2 if key == "replicas" else 1)
    for manifest in manifests:
        assert json.loads(manifest.read_text())["config"][key] == int(value)


def test_manifest_echoes_fields_set_after_parse(tmp_path):
    cfg = parse_config(write_config(tmp_path), mode="simulate")
    cfg.seed, cfg.replicas = 99, 2
    assert run(cfg) == 0
    for rep in range(2):
        manifest = json.loads((cfg.out / f"replica_{rep:03d}" / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["seed"] == 99 and manifest["config"]["replicas"] == 2


def test_parse_rejects_an_override_without_a_flag(tmp_path):
    path = write_config(tmp_path)
    assert parse_config(path, overrides={"seed": 7, "theorem": "theorem2"}).theorem == "theorem2"
    with pytest.raises(ConfigError, match="run.horizon"):
        parse_config(path, overrides={"horizon": 2.0})


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("mu = 0.2", "mu = 0.2\nbogus = 1"))
    code = main(["simulate", "--config", str(path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_main_reports_an_integrator_blow_up_as_a_config_error(tmp_path, capsys):
    # the step is far beyond RK4's stability bound at this resolution
    path = write_config(tmp_path, extra="\n[pde]\nresolution = 512\ndt = 0.5\n")
    path.write_text(path.read_text().replace("s = constant 0.9", "s = fourier 1 0.05 0.9"))
    code = main(["pde", "--config", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: solution went negative")


def test_main_converge_mode_flag(tmp_path):
    path = write_config(tmp_path, ladder="ladder = 4:10:1000, 4:20:4000")
    code = main(["converge", "--config", str(path), "--mode", "theorem2",
                 "--replicas", "1", "--out", str(tmp_path / "t2")])
    assert code == 0
    summary = (tmp_path / "t2" / "report_summary.csv").read_text().splitlines()
    assert len(summary) == 3


@pytest.mark.parametrize("mode", ["simulate", "diagnose"])
@pytest.mark.parametrize("replicas, expected", [(2, 2), (5, 3)])
def test_worker_count_capped_by_jobs_and_cpus(
    tmp_path, pool_sizes, usable_cpus, mode, replicas, expected
):
    usable_cpus(3)
    path = write_config(tmp_path)
    argv = [mode, "--config", str(path), "--replicas", str(replicas), "--workers", "3"]
    assert main(argv) == 0
    assert pool_sizes == [expected]
