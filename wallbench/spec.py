"""Workload definitions and the fixed sim-clock schedule.

Pure data: importing this module does not import the program, so
``run.py`` stays light and every measured import happens in a child
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Load-generator tick and measurement slice, in sim seconds.
TICK = 0.05
#: Discovery settle before the first injected flow.
SETTLE_S = 0.5
#: Slice boundaries sit this far before each generator tick, so every
#: slice holds exactly one tick whatever the float rounding.
EDGE_S = 1e-6
#: Crash markers fire this long after their slice's tick.
MARKER_OFFSET_S = 0.001
#: Sim step while a recovery is pending (the recovery timer's grain).
RECOVERY_STEP_S = 0.0005
#: Sim time run after the load stops, so in-flight events complete.
DRAIN_S = 1.0
#: Pause between the markers of a recovery drill.
DRILL_GAP_S = 0.05
#: Machine-speed probe: a fixed pure-Python loop that allocates no
#: container (so it does not drive the garbage collector), timed as
#: the median of PROBE_TRIES around every slice and after every drill
#: crash.  The host's speed drifts by half for seconds to minutes, so
#: every time is scaled by PROBE_REF_S / probe: it is reported at the
#: speed at which the probe takes PROBE_REF_S, about the fast state of
#: the 2-vCPU machine the recorded numbers come from.
PROBE_LOOPS = 10_000
PROBE_TRIES = 3
PROBE_REF_S = 0.0007
#: Load-generator ingest capacity model (as in ``repro bench``).
SERVICE_TIME_S = 0.0008
#: Tracer rings are emptied every this many slices (bounded memory,
#: as ``repro bench`` does per chunk); outside the timed slices.
CLEAR_EVERY = 10
TELEMETRY_KWARGS = {"metrics_max_samples": 4096, "max_spans": 60_000}
#: Chaos on the app RPC and replication channels (replicated-lossy).
CHAOS = {"loss": 0.05, "reorder": 0.05, "duplicate": 0.025}
#: Payload that makes the benchmark's app crash.
CRASH_MARKER = "WALLBENCH-CRASH-MARKER"
#: Fabric: a depth-1 tree of this fan-out, one host per leaf.
FANOUT = 4
#: Traffic mix: share of flows aimed at the fixed hotspot hosts.
HOT_FRACTION = 0.15
HOT_SET = 32
#: Sample floors per run: p95 of slices and p90 of recoveries each
#: keep at least ten samples beyond them.
MIN_SLICES = 200
MIN_RECOVERIES = 100


@dataclass(frozen=True)
class Workload:
    """One seeded, open-loop schedule on the sim clock."""

    name: str
    why: str
    shards: int = 1
    backups: int = 1
    checkpoint_interval: int = 8
    hosts: int = 2_000
    rate: float = 40.0            # offered flows per sim second
    churn_per_sec: float = 2.0
    chaos: bool = False
    #: One crash marker in every slice of the measured window.
    storm: bool = False
    warmup_s: float = 2.0
    window_s: float = 10.0
    #: Markers of the post-window recovery drill (load stopped); used
    #: where the window itself has no crashes.
    drill_markers: int = 100

    @property
    def warmup_ticks(self) -> int:
        return int(round(self.warmup_s / TICK))

    @property
    def window_ticks(self) -> int:
        return int(round(self.window_s / TICK))

    @property
    def window_markers(self) -> int:
        return self.window_ticks if self.storm else 0

    @property
    def drill_size(self) -> int:
        return 0 if self.storm else self.drill_markers


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="steady",
            why=("Normal-case path, no faults: every event crosses proxy, "
                 "codec, channel, stub, app, checkpoint, NetLog and "
                 "replication; the wire codec dominates."),
        ),
        Workload(
            name="crash-storm",
            why=("steady plus a crash marker every 50 sim-ms with "
                 "per-event checkpoints: Crash-Pad restores and replays "
                 "on each crash, loading checkpoint writes and reads."),
            checkpoint_interval=1,
            storm=True,
        ),
        Workload(
            name="replicated-lossy",
            why=("2 shards x 2 signed backups, 1e5 hosts, 120 flows/s, "
                 "5% loss/reorder on RPC and replication channels: loads "
                 "replication, shard routing and retransmits."),
            shards=2,
            backups=2,
            hosts=100_000,
            rate=120.0,
            churn_per_sec=8.0,
            chaos=True,
            warmup_s=1.0,
        ),
    )
}
