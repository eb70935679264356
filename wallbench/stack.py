"""Build the LegoSDN stack for a workload and run one repetition.

Everything here goes through the program's public constructors:
``Network``, ``ShardCoordinator``, ``HostUniverse``/``TrafficMix``/
``LoadGenerator`` and ``ChaosProfile``.  The only program-facing code
the benchmark owns is :class:`CrashMarkerSwitch`.

A repetition runs a fixed sim-time schedule: settle discovery, start
the open-loop load, warm up, time every 50-ms slice of the measured
window, stop the load and drain, then (where the window had no
crashes) time a recovery drill.  The wall clock never feeds back into
the schedule, so two runs of one seed do identical work.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.apps import LearningSwitch
from repro.bench import HostUniverse, LoadGenerator, TrafficMix
from repro.faults import ChaosProfile
from repro.network.net import Network
from repro.network.packet import reset_packet_ids, tcp_packet
from repro.network.topology import tree_topology
from repro.openflow.messages import PacketIn, reset_xid_counter
from repro.shard import ShardCoordinator

from wallbench.spec import (CHAOS, CLEAR_EVERY, CRASH_MARKER, DRAIN_S,
                            DRILL_GAP_S, EDGE_S, FANOUT, HOT_FRACTION,
                            HOT_SET, MARKER_OFFSET_S, PROBE_LOOPS,
                            PROBE_TRIES, RECOVERY_STEP_S, SERVICE_TIME_S,
                            SETTLE_S, TELEMETRY_KWARGS, TICK, Workload)


def probe() -> float:
    """Seconds the machine-speed probe takes now (median of a few)."""
    times = []
    for _ in range(PROBE_TRIES):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CrashMarkerSwitch(LearningSwitch):
    """LearningSwitch that crashes on every packet carrying the marker.

    The trigger is a property of the packet alone, so every marker
    crashes the app exactly once and replay after recovery is clean.
    """

    def on_packet_in(self, event):
        if CRASH_MARKER in (getattr(event.packet, "payload", "") or ""):
            raise RuntimeError("wallbench: crash marker")
        return super().on_packet_in(event)


def make_mix(workload: Workload, seed: int, dpids) -> TrafficMix:
    """The seeded flow source the load generator draws from."""
    universe = HostUniverse(workload.hosts, sorted(dpids), seed=seed)
    return TrafficMix(universe, seed=seed + 1,
                      hot_fraction=HOT_FRACTION, hot_set=HOT_SET,
                      churn_per_sec=workload.churn_per_sec)


def marker_hosts(universe: HostUniverse, seed: int, count: int):
    """(src, dst) host pairs of the crash markers, from their own RNG
    so markers never shift the flow sequence."""
    rng = random.Random(seed + 3)
    return [(universe.host(universe.sample_idx(rng)),
             universe.host(universe.sample_idx(rng)))
            for _ in range(count)]


def fabric(workload: Workload):
    return tree_topology(1, FANOUT, hosts_per_leaf=1)


class Stack:
    """One workload's deployment plus the benchmark's bookkeeping."""

    def __init__(self, workload: Workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        # Fresh id spaces: varint widths depend on id magnitude, so
        # in-process repeats must restart them to match byte counts.
        reset_xid_counter()
        reset_packet_ids()
        self.net = Network(fabric(workload), seed=seed)
        self.sim = self.net.sim
        chaos = (ChaosProfile(seed + 2, **CHAOS) if workload.chaos
                 else None)
        runtime_kwargs = {"checkpoint_interval":
                          workload.checkpoint_interval}
        if chaos is not None:
            runtime_kwargs["chaos"] = chaos
        self.coordinator = ShardCoordinator(
            self.net, shards=workload.shards, apps=(CrashMarkerSwitch,),
            backups=workload.backups, service_time=SERVICE_TIME_S,
            telemetry_enabled=True, chaos=chaos, seed=seed,
            runtime_kwargs=runtime_kwargs,
            telemetry_kwargs=TELEMETRY_KWARGS)
        self.coordinator.start()
        self.mix = make_mix(workload, seed, self.net.switches)
        self.generator = LoadGenerator(
            self.sim, self.coordinator.owner_controller, self.mix,
            rate=workload.rate, tick=TICK)
        self._markers = iter(marker_hosts(
            self.mix.universe, seed,
            workload.window_markers + workload.drill_size))
        self.markers_injected = 0
        #: Wall start of each crash whose recovery is still pending.
        self._pending: deque = deque()
        self._marker_times: deque = deque()
        self._recovered = 0
        self.recovery_ms: List[float] = []
        #: The speed probe taken next after each recovery.
        self.recovery_probe_s: List[float] = []
        self.spans_seen = 0
        self.gen_start = 0.0

    # -- introspection ---------------------------------------------------

    def runtimes(self):
        return [h.runtime for h in self.coordinator.shards.values()]

    def channels(self):
        """Every AppVisor RPC channel and replication channel."""
        out = []
        for handle in self.coordinator.shards.values():
            out.extend(handle.runtime.channels.values())
            out.extend(r.channel for r in handle.replicas.replicas
                       if r.channel is not None)
        return out

    def replication_channels(self):
        return [r.channel for h in self.coordinator.shards.values()
                for r in h.replicas.replicas if r.channel is not None]

    def telemetries(self):
        out = [self.coordinator.telemetry]
        for handle in self.coordinator.shards.values():
            out.extend(r.telemetry for r in handle.replicas.replicas)
        return [t for t in out if t.enabled]

    def counts(self) -> Dict[str, int]:
        """Deterministic counters; deltas of two snapshots are exact."""
        c = dict.fromkeys(("dispatched", "completed", "crashes",
                           "recoveries"), 0)
        for runtime in self.runtimes():
            for app in runtime.stats().values():
                for key in c:
                    c[key] += app[key]
        c["drops"] = self.generator.events_dropped
        c["offered"] = self.generator.events_offered
        for key in ("wire_bytes", "frames", "retransmits",
                    "bytes_carried", "repl_frames"):
            c[key] = 0
        for channel in self.channels():
            b = channel.byte_stats()
            c["wire_bytes"] += b["proxy_bytes_sent"] + b["stub_bytes_sent"]
            c["bytes_carried"] += b["bytes_carried"]
            c["frames"] += (channel.proxy_end.frames_sent
                            + channel.stub_end.frames_sent)
            c["retransmits"] += channel.reliability_stats()["retransmits"]
        for channel in self.replication_channels():
            c["repl_frames"] += (channel.proxy_end.frames_sent
                                 + channel.stub_end.frames_sent)
        for key in ("bytes_written", "value_encodes", "encodes_skipped"):
            c[key] = 0
        for runtime in self.runtimes():
            for stub in runtime.stubs.values():
                stats = stub.checkpoints.stats()
                for key in ("bytes_written", "value_encodes",
                            "encodes_skipped"):
                    c[key] += stats[key]
        return c

    def total_recoveries(self) -> int:
        return sum(r.total_recoveries() for r in self.runtimes())

    def divergence(self) -> List[int]:
        return [h.replicas.divergence()
                for _, h in sorted(self.coordinator.shards.items())]

    def clear_spans(self) -> None:
        """Empty the program's tracer rings, counting what they held."""
        for telemetry in self.telemetries():
            self.spans_seen += len(telemetry.tracer.spans)
            telemetry.tracer.spans.clear()

    # -- crash markers ---------------------------------------------------

    def schedule_marker(self, when: float) -> None:
        """Markers must be scheduled in time order."""
        src, dst = next(self._markers)
        self._marker_times.append(when)
        self.sim.schedule_at(when, self._inject_marker, src, dst)

    def _inject_marker(self, src, dst) -> None:
        """One poisoned PacketIn through the normal punt entry point."""
        packet = tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                            src_port=10000 + src.idx % 5000, dst_port=80,
                            size=64, payload=CRASH_MARKER)
        controller = self.coordinator.owner_controller(src.dpid)
        marker_id = self.markers_injected
        self.markers_injected += 1
        if self.tracer is not None:
            self.tracer.crash = marker_id
        self._pending.append((marker_id, time.perf_counter()))
        controller.handle_switch_message(
            src.dpid, PacketIn(dpid=src.dpid, in_port=src.port,
                               packet=packet))

    def probe(self) -> float:
        """Probe the machine's speed; recoveries since the last probe
        are paired with this one."""
        speed = probe()
        missing = len(self.recovery_ms) - len(self.recovery_probe_s)
        self.recovery_probe_s.extend([speed] * missing)
        return speed

    def _poll_recoveries(self) -> None:
        done = self.total_recoveries() - self._recovered
        while done > 0 and self._pending:
            _, started = self._pending.popleft()
            self.recovery_ms.append((time.perf_counter() - started) * 1e3)
            self._recovered += 1
            done -= 1
        if self.tracer is not None:
            self.tracer.crash = (self._pending[0][0] if self._pending
                                 else None)

    def advance(self, until: float) -> None:
        """Run the sim to ``until``; in sub-ms steps while a crash
        awaits its recovery, so the recovery timer stops promptly."""
        sim = self.sim
        while True:
            if self._pending:
                sim.run_until(min(sim.now + RECOVERY_STEP_S, until))
                self._poll_recoveries()
                if sim.now >= until:
                    return
            elif self._marker_times and self._marker_times[0] <= until:
                # Stop right after the marker fires, so its recovery
                # gets the fine-grained steps.
                sim.run_until(self._marker_times.popleft())
            else:
                sim.run_until(until)
                return

    # -- the schedule ----------------------------------------------------

    def tick_edge(self, k: int) -> float:
        """Start of slice ``k``, just before the generator's k-th tick."""
        return self.gen_start + k * TICK - EDGE_S

    def settle(self) -> None:
        """Discovery settle, then start the load: the next sim event
        after this is the first injected flow."""
        self.sim.run_until(SETTLE_S)
        self.gen_start = self.sim.now
        self.generator.start()


def run_repetition(workload: Workload, seed: int, tracer=None,
                   slice_ticks: int = 1,
                   on_setup: Optional[Callable[[], None]] = None) -> dict:
    """Run one full repetition; return its raw measurements.

    ``slice_ticks`` > 1 times coarser slices (used to show that the
    slicing does not change what the program does).
    """
    stack = Stack(workload, seed, tracer=tracer)
    stack.settle()
    if on_setup is not None:
        on_setup()
    first = workload.warmup_ticks + 1
    last = first + workload.window_ticks
    stack.advance(stack.tick_edge(first))
    stack.clear_spans()
    stack.spans_seen = 0
    for k in range(first, last):
        if workload.storm:
            stack.schedule_marker(stack.tick_edge(k) + EDGE_S
                                  + MARKER_OFFSET_S)
    before = stack.counts()
    slices: List[float] = []
    #: probes[k] and probes[k + 1] bracket slice k.
    probes: List[float] = [stack.probe()]
    bounds: List[tuple] = []
    clock = time.perf_counter
    for n, k in enumerate(range(first, last, slice_ticks)):
        edge = stack.tick_edge(min(k + slice_ticks, last))
        if tracer is not None:
            tracer.slice = n
        t0 = clock()
        stack.advance(edge)
        t1 = clock()
        if tracer is not None:
            tracer.slice = None
            bounds.append((t0, t1))
        slices.append(t1 - t0)
        probes.append(stack.probe())
        if (n + 1) % CLEAR_EVERY == 0:
            stack.clear_spans()
    stack.clear_spans()
    window = stack.counts()
    stack.generator.stop()
    stack.advance(stack.sim.now + DRAIN_S)
    drained = stack.counts()
    if workload.drill_size:
        start = stack.sim.now
        for i in range(workload.drill_size):
            stack.schedule_marker(start + (i + 1) * DRILL_GAP_S)
        for i in range(workload.drill_size):
            stack.advance(start + (i + 1.5) * DRILL_GAP_S)
            stack.probe()
        stack.advance(start + (workload.drill_size + 1) * DRILL_GAP_S
                      + DRAIN_S)
    stack.probe()
    final = stack.counts()
    return {
        "workload": workload.name,
        "seed": seed,
        "slice_s": slices,
        "probe_s": probes,
        "slice_bounds": bounds,
        "window_wall_s": sum(slices),
        "recovery_ms": stack.recovery_ms,
        "recovery_probe_s": stack.recovery_probe_s,
        "markers": {"window": workload.window_markers,
                    "drill": workload.drill_size,
                    "injected": stack.markers_injected,
                    "pending": len(stack._pending)},
        "counts": {"before": before, "window": window,
                   "drained": drained, "final": final},
        "spans_per_window": stack.spans_seen,
        "divergence": stack.divergence(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
