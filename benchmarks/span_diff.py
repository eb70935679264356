#!/usr/bin/env python
"""Span-diff harness: the perf trajectory of the event hot path.

Runs one fixed, telemetry-enabled workload under two configurations --

- **current**: the shipped defaults (per-event checkpoints whose
  images share unchanged buffers, deferred encoding, per-tick batched
  RPC);
- **interval8**: the same with a checkpoint every 8 events and
  journal-tail replay;

-- then summarises the hot-path spans (``appvisor.event`` and its
segments: dispatch, RPC, checkpoint, NetLog commit) for each and
reports per-segment deltas.  All durations are *simulated* seconds, so
captures are deterministic and diffable across commits.

Usage::

    PYTHONPATH=src python benchmarks/span_diff.py capture --out BENCH_PR3.json
    PYTHONPATH=src python benchmarks/span_diff.py check --baseline BENCH_PR3.json

``check`` re-runs the current configuration and fails (exit 1) when
the median ``appvisor.event`` duration regresses more than the
threshold (default 20%) against the committed baseline -- the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.apps import FlowMonitor, Hub
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.core.runtime import LegoSDNRuntime
from repro.telemetry import Telemetry, trace_dict
from repro.telemetry.spandiff import (
    HOT_PATH_SPANS,
    check_regression,
    diff_summaries,
    render_diff,
    summarize_spans,
)
from repro.workloads.traffic import inject_marker_packet

PROBES = 30

CURRENT_CONFIG: dict = {}
#: The interval configuration the acceptance gate measures: fuzzy
#: checkpoints every 8 events with tail replay, on top of the shipped
#: dirty-tracking + deferred-encoding defaults.
INTERVAL8_CONFIG: dict = {"checkpoint_interval": 8}


def capture_config(runtime_kwargs: dict, seed: int = 0,
                   shards: int | None = None) -> dict:
    """Run the fixed workload; return the per-span summary.

    With ``shards`` the same workload runs through a
    :class:`~repro.shard.ShardCoordinator` instead of a bare runtime
    -- ``shards=1`` is the CI re-verification that the sharding layer
    adds no hot-path overhead when it is not dividing anything.
    """
    if shards is not None:
        from repro.shard import ShardCoordinator

        net = Network(linear_topology(2, 1), seed=seed)
        coordinator = ShardCoordinator(
            net, shards=shards, apps=(Hub, FlowMonitor),
            telemetry_enabled=True, seed=seed,
            runtime_kwargs=runtime_kwargs)
        coordinator.start()
        net.run_for(1.0)
        for i in range(PROBES):
            inject_marker_packet(net, "h1", "h2", f"probe-{i}")
            net.run_for(0.2)
        net.run_for(1.0)
        spans = []
        for handle in coordinator.shards.values():
            spans.extend(trace_dict(handle.telemetry)["spans"])
        return summarize_spans(spans, names=HOT_PATH_SPANS)
    telemetry = Telemetry(enabled=True)
    net = Network(linear_topology(2, 1), seed=seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller, **runtime_kwargs)
    # Hub punts every unique payload through the full control loop
    # (twice per probe on a 2-switch line); FlowMonitor rides along so
    # dispatch fans out to more than one listener.
    runtime.launch_app(Hub())
    runtime.launch_app(FlowMonitor())
    net.start()
    net.run_for(1.0)
    for i in range(PROBES):
        inject_marker_packet(net, "h1", "h2", f"probe-{i}")
        net.run_for(0.2)
    net.run_for(1.0)
    spans = trace_dict(telemetry)["spans"]
    return summarize_spans(spans, names=HOT_PATH_SPANS)


def cmd_capture(args) -> int:
    current = capture_config(dict(CURRENT_CONFIG), seed=args.seed)
    interval8 = capture_config(dict(INTERVAL8_CONFIG), seed=args.seed)
    diff = diff_summaries(current, interval8)
    print(f"span-diff capture: {PROBES} probes, linear(2,1), "
          "current vs interval8 hot path\n")
    print(render_diff(diff, base_label="current", cand_label="interval8"))
    document = {
        "harness": "benchmarks/span_diff.py",
        "workload": {"topology": "linear(2,1)", "probes": PROBES,
                     "apps": ["hub", "monitor"], "seed": args.seed},
        "configs": {"current": CURRENT_CONFIG,
                    "interval8": INTERVAL8_CONFIG},
        "summaries": {"current": current, "interval8": interval8},
        "diff": diff,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\ncapture written to {args.out}")
    return 0


def cmd_check(args) -> int:
    with open(args.baseline) as fh:
        baseline = json.load(fh)["summaries"]["current"]
    current = capture_config(dict(CURRENT_CONFIG), seed=args.seed,
                             shards=args.shards)
    label = "HEAD" if args.shards is None else f"HEAD (K={args.shards})"
    print(render_diff(diff_summaries(baseline, current),
                      base_label=args.baseline, cand_label=label))
    ok, message = check_regression(baseline, current,
                                   span=args.span,
                                   threshold=args.threshold)
    print(("\nOK   " if ok else "\nFAIL ") + message)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_capture = sub.add_parser("capture",
                               help="capture current-vs-interval8 summaries")
    p_capture.add_argument("--out", help="write the capture JSON here")
    p_capture.add_argument("--seed", type=int, default=0)
    p_capture.set_defaults(func=cmd_capture)
    p_check = sub.add_parser("check",
                             help="gate HEAD against a committed capture")
    p_check.add_argument("--baseline", required=True,
                         help="committed capture (e.g. BENCH_PR3.json)")
    p_check.add_argument("--span", default="appvisor.event")
    p_check.add_argument("--threshold", type=float, default=0.20)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--shards", type=int, default=None,
                         help="run the workload through a sharded "
                              "plane with this K (1 = overhead gate)")
    p_check.set_defaults(func=cmd_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
