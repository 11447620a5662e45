#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at its tiny size, untraced and traced, and fails
(exit code 1) unless:
  * every metric of BENCHMARK.json is printed with its unit and direction,
    and so is failed_frac, and no run failed;
  * the per-event costs on the quickstart shape stay within 2x of the
    measured baseline (exact simulator ~28 us/event at n = 8, event-log
    sweep 90-110 us/event); outside that, a workload is mis-sized or a
    layer is mislabelled.  Code that made a layer faster than half its
    baseline also trips this check, which then needs new baselines;
  * the layers fall where the workloads say: the simulator has the most
    self time on ladder, the sweep on diagnose, and the sweep is never
    called on ladder or roundtrip.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SSA_US_PER_EVENT = (14.0, 56.0)  # 2x around ~28
SWEEP_US_PER_EVENT = (45.0, 220.0)  # 2x around 90-110
LINE = re.compile(r"^perfbench metric (\S+) = (\S+) (\S+) \((lower|higher) is better")


def run(workload: str, trace: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
    printed = {}
    for line in lines:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3), m.group(4))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        assert name in printed, f"{workload}: {name} not printed"
        assert printed[name][1:] == (entry["unit"], entry["better"]), f"{workload}: {name} {printed[name]}"
        assert result["metrics"][name]["unit"] == entry["unit"]
    assert printed["failed_frac"][0] == 0.0, f"{workload}: failed_frac {printed['failed_frac']}"
    return {name: value for name, (value, _, _) in printed.items()}


def within(label: str, value: float, bounds: tuple[float, float]):
    assert bounds[0] <= value <= bounds[1], f"{label} = {value:.1f}, outside {bounds}"


def main() -> int:
    layers = {}
    for workload in ("ladder", "diagnose", "roundtrip"):
        run(workload, trace=0)
        layers[workload] = run(workload, trace=1)
        print(f"smoke: {workload} ok", flush=True)

    within("ladder stochastic.us_per_event", layers["ladder"]["stochastic.us_per_event"], SSA_US_PER_EVENT)
    within("diagnose stochastic.us_per_event", layers["diagnose"]["stochastic.us_per_event"], SSA_US_PER_EVENT)
    within("diagnose diagnostics.sweep.us_per_event",
           layers["diagnose"]["diagnostics.sweep.us_per_event"], SWEEP_US_PER_EVENT)
    for workload in ("ladder", "roundtrip"):
        assert layers[workload]["diagnostics.sweep.calls"] == 0, workload
    self_times = {w: {k: v for k, v in m.items() if k.endswith(".self_s")} for w, m in layers.items()}
    assert max(self_times["ladder"], key=self_times["ladder"].get) == "stochastic.self_s", self_times["ladder"]
    assert max(self_times["diagnose"], key=self_times["diagnose"].get) == "diagnostics.sweep.self_s", \
        self_times["diagnose"]
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
