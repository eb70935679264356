"""Tests of the benchmark itself.

Run from the checkout root: ``python -m pytest wallbench/tests -q``.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import LoadGenerator
from repro.network.net import Network
from repro.network.simulator import Simulator
from wallbench import run
from wallbench.child import repetition
from wallbench.spec import TICK, WORKLOADS
from wallbench.stack import fabric, make_mix, marker_hosts, run_repetition

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def short(name, **changes):
    """A workload cut down to a test-sized run."""
    changes.setdefault("warmup_s", 0.5)
    changes.setdefault("window_s", 1.0)
    changes.setdefault("drill_markers", 3)
    return replace(WORKLOADS[name], **changes)


class _Recorder:
    """Stands in for a controller; records what the program receives."""

    def __init__(self):
        self.received = []

    def handle_switch_message(self, dpid, msg):
        p = msg.packet
        self.received.append((dpid, msg.in_port, p.eth_src, p.eth_dst,
                              p.ip_src, p.ip_dst))


def generated(workload, seed, seconds=3.0):
    """The flows the load generator injects, and the crash markers."""
    dpids = Network(fabric(workload)).switches
    mix = make_mix(workload, seed, dpids)
    sim = Simulator(seed=seed)
    recorder = _Recorder()
    LoadGenerator(sim, lambda dpid: recorder, mix, rate=workload.rate,
                  tick=TICK).start()
    sim.run_until(seconds)
    return recorder.received, marker_hosts(mix.universe, seed, 50)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_flows_and_markers(name):
    workload = WORKLOADS[name]
    flows, markers = generated(workload, 7)
    assert abs(len(flows) - workload.rate * 3.0) <= workload.rate * TICK
    assert generated(workload, 7) == (flows, markers)
    other_flows, other_markers = generated(workload, 8)
    assert other_flows != flows
    assert other_markers != markers


@pytest.mark.parametrize("name", ["steady", "crash-storm"])
def test_slicing_does_not_change_the_run(name):
    workload = short(name)
    fine = run_repetition(workload, 3, slice_ticks=1)
    coarse = run_repetition(workload, 3, slice_ticks=10)
    assert len(fine["slice_s"]) == workload.window_ticks
    assert len(coarse["slice_s"]) == workload.window_ticks // 10
    assert run.deterministic_part(fine) == run.deterministic_part(coarse)
    assert run.check_reps([fine, coarse]) == []


def test_checks_catch_broken_outputs():
    workload = short("crash-storm")
    rep = run_repetition(workload, 4)
    assert run.check_reps([rep]) == []
    lost = copy.deepcopy(rep)
    lost["counts"]["drained"]["completed"] -= 1
    assert any("events failed" in f
               for f in run.check_reps([rep, lost]))
    diverged = copy.deepcopy(rep)
    diverged["divergence"] = [1]
    assert any("divergence" in f for f in run.check_reps([diverged]))
    unrecovered = copy.deepcopy(rep)
    unrecovered["counts"]["final"]["recoveries"] -= 1
    assert any("recoveries" in f for f in run.check_reps([unrecovered]))


def benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_printed_metrics_are_the_listed_ones():
    workload = short("replicated-lossy", window_s=0.5)
    base = repetition(workload, 5, "measure")
    traced = repetition(workload, 5, "traced")
    assert run.check_reps([base, traced],
                          run.TRACEBACK_BYTES) == []
    assert run.check_trace(traced) == []
    printed = {
        "end_to_end": run.end_to_end([base], [0.5]),
        "per_layer": dict(run.per_layer(base, traced),
                          trace_overhead_ratio=1.0),
    }
    units = {"end_to_end": run.END_TO_END_UNITS,
             "per_layer": run.per_layer_units()}
    for section, metrics in printed.items():
        listed = benchmark_names(section)
        assert set(metrics) == set(listed)
        for name, value in metrics.items():
            assert NAME.fullmatch(name)
            assert units[section][name] == listed[name]
            assert value == value  # not NaN
    assert {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]} <= set(WORKLOADS)


def test_layer_self_times_and_residual_sum_to_slice_time():
    traced = repetition(short("steady"), 6, "traced")
    layers = run.per_layer(traced, traced)
    events = run.delta(traced, "completed")
    total_us = sum(layers[f"{layer}.self_us_per_event"]
                   for layer in list(run.LAYERS) + ["network"])
    assert total_us * events / 1e6 == pytest.approx(
        sum(run.slice_seconds([traced])), rel=1e-9)
    assert layers["network.self_us_per_event"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "wallbench", tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
