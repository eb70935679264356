"""The proxy<->stub RPC protocol.

"The stub is a light-weight wrapper around the actual SDN-App and
converts all calls from the SDN-App to the controller to messages
which are then delivered to the proxy. ... In other words, the stub
and proxy implement a simple RPC-like mechanism." (§4.1)

Every frame is a registered dataclass serialised with the byte codec
from :mod:`repro.openflow.serialization`, so crossing the boundary has
a real, measurable wire cost (charged by the channel's latency model).

Event-scoped frames carry a ``trace_id``: the causal identity the
controller minted when the originating event entered dispatch.  The
stub echoes it back on everything the event produced (outputs,
completion, crash reports, restore acks), so both sides' telemetry
spans -- and the channel's retransmission spans for the datagrams in
between -- assemble into one causal tree per event
(:mod:`repro.telemetry.causal`).  ``trace_id=0`` means untraced
(telemetry off, or background frames like heartbeats).

Frame inventory (direction):

==================  ===========  =========================================
Frame               Direction    Purpose
==================  ===========  =========================================
Register            stub->proxy  announce app + subscriptions
EventDeliver        proxy->stub  deliver one subscribed event
AppOutput           stub->proxy  one message the app emitted (streamed)
EventComplete       stub->proxy  the event was handled successfully
CrashReport         stub->proxy  the app raised; diagnostics attached
Heartbeat           stub->proxy  periodic liveness beacon
RestoreCommand      proxy->stub  restore to pre-event checkpoint
RestoreAck          stub->proxy  restore finished (replay stats attached)
ContextPush         proxy->stub  full topology/host cache refresh
ContextDelta        proxy->stub  changed host rows (+ topology if moved)
==================  ===========  =========================================
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.controller.api import HostEntry, TopoView
from repro.openflow.serialization import (
    decode_value,
    encode_value,
    register_dataclass,
)


@register_dataclass
@dataclass(frozen=True)
class Register:
    app_name: str
    subscriptions: Tuple[str, ...]
    #: Whether the stub can run STS deep restores (it has a replica
    #: factory for probe runs).
    supports_deep_restore: bool = False
    #: Highest event seq this stub has already been delivered.  0 for a
    #: fresh launch; a stub re-registering with a promoted backup after
    #: a controller failover passes its last seq so the new proxy
    #: continues numbering instead of colliding with the stub's
    #: journal/checkpoint history.
    resume_from_seq: int = 0


@register_dataclass
@dataclass(frozen=True)
class EventDeliver:
    app_name: str
    seq: int
    event: object
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class AppOutput:
    """One emission, streamed as the app produces it.

    Streaming (rather than batching into EventComplete) is what makes
    mid-transaction crashes real: when the app dies after emitting k of
    n messages, the proxy has already applied k -- and NetLog must roll
    them back.
    """

    app_name: str
    seq: int
    index: int
    dpid: int
    message: object
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class EventComplete:
    app_name: str
    seq: int
    output_count: int
    counter_deltas: Tuple[Tuple[str, int], ...] = ()
    log_lines: Tuple[str, ...] = ()
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class CrashReport:
    app_name: str
    seq: int
    error: str
    traceback_text: str = ""
    log_lines: Tuple[str, ...] = ()
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class Heartbeat:
    app_name: str
    stub_time: float
    last_seq_done: int


@register_dataclass
@dataclass(frozen=True)
class RestoreCommand:
    """Restore the app to its state before ``offending_seq``.

    ``drop_seqs`` lists other in-flight events invalidated by the
    failure (concurrency lanes): the proxy re-delivers them with fresh
    seqs, so the stub must forget their journal entries.
    """

    app_name: str
    offending_seq: int
    drop_seqs: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class DeepRestoreCommand:
    """Escalated recovery for cumulative bugs (§5).

    Issued when plain restore-and-skip keeps failing (the app crashes
    again right after every recovery, i.e. its *checkpointed state* is
    poisoned).  The stub runs the STS search over its checkpoint
    history and journal, prunes the causal events, and rolls back to
    the newest checkpoint that replays clean.
    """

    app_name: str
    offending_seq: int
    drop_seqs: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class RestoreAck:
    app_name: str
    restored_before_seq: int
    replayed_events: int
    restore_cost: float
    ok: bool = True
    error: str = ""
    #: Event seqs the STS search identified as a cumulative bug's
    #: causal set (pruned from future replays).  Empty for the common
    #: single-event case.
    sts_culprits: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@dataclass(frozen=True)
class ContextPush:
    topo: TopoView
    hosts: Tuple[HostEntry, ...]


@dataclass(frozen=True)
class ContextDelta:
    """The host entries changed since the stub's last context frame.

    The stub merges a delta into its caches, where a
    :class:`ContextPush` replaces them.  The proxy sends one only over
    a reliable channel and only when the device table can list the
    changes (:meth:`~repro.controller.services.DeviceManager.changes_since`).

    Registered with the codec by :mod:`repro.core.appvisor.context`,
    not here, so that its schema id comes after every other frame's.
    """

    #: The current entry of each changed host, in the order the device
    #: table first saw the change.
    hosts: Tuple[HostEntry, ...]
    #: The topology view, or None when its version did not move.
    topo: Optional[TopoView] = None


@register_dataclass
@dataclass(frozen=True)
class FrameBatch:
    """Several frames coalesced into one datagram (batched RPC).

    A batching channel collects every frame sent at the same sim
    instant and ships them as one ``FrameBatch``, paying ``base_delay``
    and the codec's framing once instead of per frame.  The receiver
    unpacks in order, so per-lane FIFO is exactly what single-frame
    delivery gave -- and a loss (or a crash before the flush) drops the
    whole tail at once, never a random subset out of the middle.
    """

    frames: Tuple[object, ...]


@register_dataclass
@dataclass(frozen=True)
class SeqEnvelope:
    """Reliable-delivery wrapper around one datagram's payload.

    A reliable channel numbers every data datagram per direction
    (``seq``), carries the already-encoded frame bytes as ``payload``
    (checksummed with ``crc`` so injected corruption is *detected*, not
    silently parsed into a wrong frame), and advertises ``floor`` --
    the lowest seq the sender still guarantees to deliver.  A receiver
    seeing ``floor`` jump past a gap knows the sender has exhausted its
    retry budget on the missing datagrams and stops waiting for them
    (otherwise in-order delivery would wedge forever behind a datagram
    that will never come).
    """

    seq: int
    floor: int
    crc: int
    payload: bytes


@register_dataclass
@dataclass(frozen=True)
class ChannelAck:
    """Cumulative acknowledgement: every data seq <= ``cumulative`` has
    been delivered (or intentionally skipped under an advanced floor).

    Acks are fire-and-forget -- never numbered, never retransmitted.
    Losing one is harmless because the next ack covers it.  They *are*
    checksummed: a bit-flip in ``cumulative`` could otherwise falsely
    acknowledge data the receiver never saw, turning corruption into
    silent loss.
    """

    cumulative: int
    crc: int = 0


def _header_crc(seq: int, floor: int, payload: bytes) -> int:
    """CRC over the envelope's header *and* payload.

    Covering ``seq``/``floor`` too means a flip in the header -- which
    would otherwise re-file an intact payload under the wrong sequence
    number -- is rejected just like a mangled payload.
    """
    return zlib.crc32(payload, zlib.crc32(b"%d|%d|" % (seq, floor)))


def envelope_for(seq: int, floor: int, payload: bytes) -> SeqEnvelope:
    """Build a checksummed reliable-delivery envelope."""
    return SeqEnvelope(seq=seq, floor=floor,
                       crc=_header_crc(seq, floor, payload),
                       payload=payload)


def envelope_intact(env: SeqEnvelope) -> bool:
    """Whether header and payload survived the wire unmodified."""
    try:
        return _header_crc(env.seq, env.floor, env.payload) == env.crc
    except (TypeError, ValueError):
        # A bit-flip can mutate a field's *type tag* so the payload
        # decodes as a non-bytes value; that is corruption too.
        return False


def ack_for(cumulative: int) -> ChannelAck:
    """Build a checksummed cumulative acknowledgement."""
    return ChannelAck(cumulative=cumulative,
                      crc=zlib.crc32(b"%d" % cumulative))


def ack_intact(ack: ChannelAck) -> bool:
    """Whether the ack's cumulative field survived the wire."""
    try:
        return zlib.crc32(b"%d" % ack.cumulative) == ack.crc
    except (TypeError, ValueError):
        return False


def encode_frame(frame) -> bytes:
    """Serialise a frame for the wire."""
    return encode_value(frame)


def decode_frame(data: bytes):
    """Parse a frame off the wire."""
    return decode_value(data)


def frame_label(frame) -> str:
    """The frame's wire-protocol name, for telemetry tagging."""
    return type(frame).__name__


def trace_frame(telemetry, direction: str, frame) -> None:
    """Record one frame crossing the proxy<->stub RPC boundary.

    ``direction`` is ``"send"`` or ``"recv"`` from the caller's point
    of view.  A no-op (one attribute check) when telemetry is off, so
    the RPC hot path stays benchmark-neutral.
    """
    if not telemetry.enabled:
        return
    label = frame_label(frame)
    telemetry.tracer.event(
        f"appvisor.rpc.{direction}",
        frame=label,
        app=getattr(frame, "app_name", ""),
        seq=getattr(frame, "seq", None),
        trace=getattr(frame, "trace_id", 0) or None,
    )
    telemetry.metrics.inc(f"rpc.{direction}.{label}")


def frame_trace_ids(frame) -> Tuple[int, ...]:
    """Distinct non-zero trace ids carried by a frame (or batch).

    The reliability layer stores these per datagram so retransmissions
    attach to the event(s) whose frames the datagram carries -- a
    retransmit never mints a trace id of its own.
    """
    if isinstance(frame, FrameBatch):
        seen = []
        for inner in frame.frames:
            tid = getattr(inner, "trace_id", 0)
            if tid and tid not in seen:
                seen.append(tid)
        return tuple(seen)
    tid = getattr(frame, "trace_id", 0)
    return (tid,) if tid else ()
