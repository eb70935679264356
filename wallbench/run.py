"""Wall-clock benchmark command.

    python3 wallbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Each repetition is a fresh
child process (``python -m wallbench.child``) that builds the stack
from ``src/``, so set-up time includes imports and peak RSS is the
workload's own.  ``--trace 0`` runs five repetitions of the seed's
schedule, more while fewer than ``--seconds`` of measured window have
accumulated, and prints the end-to-end metrics: every time is scaled
to a reference machine speed by a probe taken next to it, and each
slice and each recovery is timed by its fastest repetition.
``--trace 1`` runs two untraced and two traced repetitions,
alternating, and prints the per-layer metrics.
Every run checks the program's outputs; the last line of standard
output is one JSON object, and the exit code is non-zero when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from wallbench.spec import (MIN_RECOVERIES, MIN_SLICES,  # noqa: E402
                            PROBE_REF_S, WORKLOADS)
from wallbench.tracing import LAYERS, NOTE  # noqa: E402

#: Set-up samples per run: the repetitions' own, plus set-up-only
#: processes when the deadline cut the repetitions short.
SETUP_SAMPLES = 5
#: Repetitions per run.  Scaled by the speed probe, the fastest of five
#: copies of each slice filters most of what the host's drift leaves.
MIN_REPS = 5
#: After this much of the run's time, no repetition starts beyond the
#: second, so a run on a slow machine still ends within its limit.
REP_DEADLINE_S = 110.0
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".wallbench-out"

END_TO_END_UNITS = {
    "events_per_wall_s": "events/s",
    "slice_wall_ms.p50": "ms",
    "slice_wall_ms.p95": "ms",
    "recovery_wall_ms.p50": "ms",
    "recovery_wall_ms.p90": "ms",
    "wire_bytes_per_event": "B/event",
    "event_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_event"] = "calls/event"
        units[f"{layer}.self_us_per_event"] = "us/event"
    units.update({
        "network.self_us_per_event": "us/event",
        "appvisor.channel.retransmits_per_kframe": "1/kframe",
        "appvisor.channel.goodput_ratio": "ratio",
        "openflow.serialization.bytes_encoded_per_event": "B/event",
        "openflow.serialization.bytes_decoded_per_event": "B/event",
        "crashpad.checkpoint.bytes_written_per_event": "B/event",
        "crashpad.checkpoint.encode_skip_ratio": "ratio",
        "crashpad.checkpoint.restore_us": "us",
        "replication.frames_per_event": "frames/event",
        "telemetry.spans_per_event": "spans/event",
        "trace_overhead_ratio": "ratio",
    })
    return units


class ChildFailed(RuntimeError):
    pass


# -- measurements ------------------------------------------------------


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def delta(rep: dict, key: str, start: str = "before",
          end: str = "window") -> int:
    counts = rep["counts"]
    return counts[end][key] - counts[start][key]


#: Counters a traced repetition may change: crash reports carry the
#: app's stack trace, which then includes the tracing wrapper frames.
TRACEBACK_BYTES = ("wire_bytes", "bytes_carried")


def deterministic_part(rep: dict, ignore=()) -> dict:
    """What every repetition of one seed must reproduce exactly."""
    counts = {phase: {k: v for k, v in snap.items() if k not in ignore}
              for phase, snap in rep["counts"].items()}
    return {"counts": counts, "markers": rep["markers"],
            "divergence": rep["divergence"],
            "spans_per_window": rep["spans_per_window"]}


def check_reps(reps: List[dict], ignore=()) -> List[str]:
    """Output checks; returns the failures (empty when correct).
    ``ignore`` names counters left out of the repetition comparison."""
    failures = []
    first = deterministic_part(reps[0], ignore)
    for i, rep in enumerate(reps[1:], 1):
        if deterministic_part(rep, ignore) != first:
            failures.append(f"repetition {i} differs from repetition 0 "
                            "in its deterministic counts")
    for i, rep in enumerate(reps):
        markers = rep["markers"]
        if markers["injected"] != markers["window"] + markers["drill"]:
            failures.append(f"rep {i}: {markers['injected']} markers "
                            "injected, expected "
                            f"{markers['window'] + markers['drill']}")
        for phase, start, end in (("window", "before", "drained"),
                                  ("drill", "drained", "final")):
            for key in ("crashes", "recoveries"):
                got = delta(rep, key, start, end)
                if got != markers[phase]:
                    failures.append(f"rep {i}: {phase} had {got} {key} "
                                    f"for {markers[phase]} markers")
        if markers["pending"]:
            failures.append(f"rep {i}: {markers['pending']} recoveries "
                            "never completed")
        if len(rep["recovery_ms"]) != markers["window"] + markers["drill"]:
            failures.append(f"rep {i}: {len(rep['recovery_ms'])} recovery "
                            "times for "
                            f"{markers['window'] + markers['drill']} markers")
        drained = rep["counts"]["drained"]
        if drained["drops"]:
            failures.append(f"rep {i}: generator dropped "
                            f"{drained['drops']} flows")
        lost = drained["dispatched"] - drained["completed"] + drained["drops"]
        if lost != markers["window"]:
            failures.append(f"rep {i}: {lost} events failed, expected "
                            f"the {markers['window']} crash markers")
        if any(d != 0 for d in rep["divergence"]):
            failures.append(f"rep {i}: divergence {rep['divergence']} "
                            "after the run (expected 0 on every shard)")
        if delta(rep, "completed") <= 0:
            failures.append(f"rep {i}: no events completed in the window")
    return failures


def attempted_failed(reps: List[dict]):
    """Events asked of the program, and those that failed other than
    the crash markers Crash-Pad recovered from."""
    attempted = failed = 0
    for rep in reps:
        final = rep["counts"]["final"]
        attempted += final["dispatched"] + final["drops"]
        lost = final["dispatched"] - final["completed"] + final["drops"]
        recovered = min(rep["markers"]["injected"], final["recoveries"])
        failed += max(0, lost - recovered)
    return attempted, failed


def at_reference_speed(times: List[float], probes: List[float]):
    """Scale each time by the speed probe taken next to it."""
    return [t * PROBE_REF_S / p for t, p in zip(times, probes)]


def slice_probes(rep: dict) -> List[float]:
    """The machine's speed during each slice: the mean of the probes
    taken just before and just after it."""
    probes = rep["probe_s"]
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def fastest(series: List[List[float]]) -> List[float]:
    """Element-wise minimum over repetitions.  Every repetition of a
    seed does identical work, slice by slice and crash by crash, so
    the fastest copy of each is its time with the least interference
    from other load on the machine."""
    return [min(column) for column in zip(*series)]


def slice_seconds(reps: List[dict]) -> List[float]:
    return fastest([at_reference_speed(r["slice_s"], slice_probes(r))
                    for r in reps])


def end_to_end(reps: List[dict], setups: List[float]) -> Dict[str, float]:
    slices_ms = [s * 1e3 for s in slice_seconds(reps)]
    recovery_ms = fastest([at_reference_speed(r["recovery_ms"],
                                              r["recovery_probe_s"])
                           for r in reps])
    drained = reps[0]["counts"]["drained"]
    return {
        "events_per_wall_s": (delta(reps[0], "completed")
                              / (sum(slices_ms) / 1e3)),
        "slice_wall_ms.p50": percentile(slices_ms, 50),
        "slice_wall_ms.p95": percentile(slices_ms, 95),
        "recovery_wall_ms.p50": percentile(recovery_ms, 50),
        "recovery_wall_ms.p90": percentile(recovery_ms, 90),
        "wire_bytes_per_event": (delta(reps[0], "wire_bytes")
                                 / delta(reps[0], "completed")),
        "event_ok_ratio": drained["completed"] / (drained["dispatched"]
                                                  + drained["drops"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }


def sample_floors(reps: List[dict]) -> List[str]:
    failures = []
    slices = len(reps[0]["slice_s"])
    recoveries = len(reps[0]["recovery_ms"])
    if slices < MIN_SLICES:
        failures.append(f"only {slices} slices (p95 needs {MIN_SLICES})")
    if recoveries < MIN_RECOVERIES:
        failures.append(f"only {recoveries} recoveries (p90 needs "
                        f"{MIN_RECOVERIES})")
    return failures


def per_layer(base: dict, traced: dict) -> Dict[str, float]:
    """Per-layer figures: times and call counts from the traced
    repetition, program counters from the untraced one (tracing
    lengthens the stack traces that crash reports carry)."""
    events = delta(base, "completed")
    layers = traced["layers"]
    out: Dict[str, float] = {}
    self_total = 0.0
    for layer in LAYERS:
        row = layers[layer]
        out[f"{layer}.calls_per_event"] = row["calls"] / events
        out[f"{layer}.self_us_per_event"] = row["self_s"] * 1e6 / events
        self_total += row["self_s"]
    residual = sum(slice_seconds([traced])) - self_total
    out["network.self_us_per_event"] = residual * 1e6 / events
    frames = delta(base, "frames")
    carried = delta(base, "bytes_carried")
    encodes = (delta(base, "value_encodes")
               + delta(base, "encodes_skipped"))
    restores = traced["restore_s"]
    out.update({
        "appvisor.channel.retransmits_per_kframe":
            1e3 * delta(base, "retransmits") / frames if frames else 0.0,
        "appvisor.channel.goodput_ratio":
            delta(base, "wire_bytes") / carried if carried else 0.0,
        "openflow.serialization.bytes_encoded_per_event":
            traced["codec_bytes"]["bytes_encoded"] / events,
        "openflow.serialization.bytes_decoded_per_event":
            traced["codec_bytes"]["bytes_decoded"] / events,
        "crashpad.checkpoint.bytes_written_per_event":
            delta(base, "bytes_written") / events,
        "crashpad.checkpoint.encode_skip_ratio":
            delta(base, "encodes_skipped") / encodes if encodes else 0.0,
        "crashpad.checkpoint.restore_us":
            statistics.fmean(restores) * 1e6 if restores else 0.0,
        "replication.frames_per_event":
            delta(base, "repl_frames") / events,
        "telemetry.spans_per_event": base["spans_per_window"] / events,
    })
    return out


def check_trace(traced: dict) -> List[str]:
    failures = []
    if traced["spans_outside_slices"]:
        failures.append(f"{traced['spans_outside_slices']} traced spans "
                        "fall outside their timed slice")
    self_total = sum(row["self_s"] for row in traced["layers"].values())
    if self_total > sum(slice_seconds([traced])) * (1 + 1e-9):
        failures.append("layer self times exceed the slice wall time")
    return failures


# -- child processes ---------------------------------------------------


class Runner:
    """Starts child processes one at a time, within the run's limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, spans_out: Optional[Path] = None) -> dict:
        cmd = [sys.executable, "-m", "wallbench.child",
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        spawned = time.time()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out after "
                              f"{timeout:.0f}s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n"
                              + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = at_reference_speed(
            [result["setup_done"] - spawned], [result["setup_probe_s"]])[0]
        return result


def measure(runner: Runner, seconds: float):
    reps: List[dict] = []
    while len(reps) < 2 or (
            (len(reps) < MIN_REPS
             or sum(r["window_wall_s"] for r in reps) < seconds)
            and runner.elapsed() < REP_DEADLINE_S):
        reps.append(runner.child("measure"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    failures = check_reps(reps) + sample_floors(reps)
    metrics = end_to_end(reps, setups)
    attempted, failed = attempted_failed(reps)
    raw_window = sum(fastest([r["slice_s"] for r in reps]))
    probes = [p for r in reps for p in r["probe_s"]]
    notes = [f"{len(reps)} repetitions of {len(reps[0]['slice_s'])} "
             f"slices and {len(reps[0]['recovery_ms'])} recoveries, "
             f"each timed by its fastest repetition at reference speed; "
             f"{len(setups)} set-ups",
             f"unscaled {delta(reps[0], 'completed') / raw_window:.1f} "
             f"events/s; speed probe median "
             f"{statistics.median(probes) * 1e3:.3f} ms "
             f"(reference {PROBE_REF_S * 1e3:.3f} ms)"]
    return metrics, END_TO_END_UNITS, failures, attempted, failed, notes


def measure_traced(runner: Runner):
    """Two untraced and two traced repetitions, alternating; the layer
    figures come from the last traced one, whose spans are kept."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = (OUT_DIR
                 / f"{runner.workload}-seed{runner.seed}.spans.csv.gz")
    base: List[dict] = []
    traced: List[dict] = []
    for _ in range(2):
        base.append(runner.child("measure"))
        traced.append(runner.child("traced", spans_out=spans_out))
    failures = (check_reps(base + traced, TRACEBACK_BYTES)
                + check_trace(traced[-1]))
    metrics = per_layer(base[-1], traced[-1])
    metrics["trace_overhead_ratio"] = (sum(slice_seconds(traced))
                                       / sum(slice_seconds(base)))
    attempted, failed = attempted_failed(base + traced)
    notes = [f"{traced[-1]['spans_traced']} spans written to {spans_out}",
             NOTE]
    return metrics, per_layer_units(), failures, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"wallbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            outcome = measure_traced(runner)
        else:
            outcome = measure(runner, args.seconds)
    except ChildFailed as exc:
        print(f"wallbench: {exc}", file=sys.stderr)
        return 1
    metrics, units, failures, attempted, failed, notes = outcome
    print(f"wallbench {args.workload} seed={args.seed} trace={args.trace}: "
          + "; ".join(notes))
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6f} {units[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
