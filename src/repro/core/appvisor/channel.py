"""The simulated UDP channel between proxy and stub.

"The proxy and stub communicate with each other using UDP."  (§4.1)

Datagrams are serialised frames; delivery takes ``base_delay`` plus a
per-byte transmission cost (this is where the paper's §3.1 caveat --
"serialization and de-serialization of messages, and the communication
protocol overhead introduce additional latency into the control-loop"
-- becomes measurable: the E2 experiment reads these costs straight
off the channel).  UDP is unreliable, so a ``loss`` probability can be
configured; heartbeats tolerate loss, and lost event traffic surfaces
as an event-timeout in the failure detector.

With ``batch=True`` the channel coalesces every frame a side sends at
the same sim instant into one :class:`~repro.core.appvisor.rpc.FrameBatch`
datagram, flushed on the tick boundary (``batch_window`` past the first
send).  One ``base_delay`` and one loss roll per batch instead of per
frame; delivery unpacks in order, so FIFO per direction is preserved
exactly.  Direct constructions default to unbatched -- the runtime and
the replication layer opt in.

With ``reliable=True`` the channel adds a TCP-like reliability layer
on top of the datagrams: per-side sequence numbers
(:class:`~repro.core.appvisor.rpc.SeqEnvelope`), cumulative acks,
retransmission with exponential backoff + seeded jitter under a
``retry_budget``, receiver-side dedup, and an in-order reorder buffer
-- so loss, duplication, reordering, and corruption (CRC-checked)
degrade into latency instead of lost or doubled frames: every frame is
delivered to the handler exactly once, in send order.  A datagram that
exhausts its retry budget is *abandoned*: the sender advances its
``floor`` past the gap (receivers stop waiting for it) and raises a
:class:`ChannelFault` through ``on_fault`` -- the signal the crashpad
FailureDetector uses to tell "channel lossy" apart from "app dead".

Chaos injection composes underneath either mode: assign a
:class:`~repro.faults.netfaults.ChaosProfile` to ``channel.chaos`` and
every datagram put on the wire is subject to its seeded burst loss,
duplication, reordering, delay jitter, payload corruption, and timed
partitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.appvisor.rpc import (
    ChannelAck,
    FrameBatch,
    SeqEnvelope,
    ack_for,
    ack_intact,
    decode_frame,
    encode_frame,
    envelope_for,
    envelope_intact,
    frame_trace_ids,
)
from repro.openflow.serialization import SerializationError


@dataclass(frozen=True)
class ChannelFault:
    """A reliability failure on one direction of a channel.

    Raised through ``UdpChannel.on_fault`` when a datagram exhausts its
    retry budget -- the channel itself (not the process behind it) is
    the thing misbehaving.  ``seq`` is the highest abandoned sequence
    number; everything at or below it that was still unacked has been
    given up on.
    """

    side: str
    seq: int
    attempts: int
    at: float


@dataclass
class _Unacked:
    """One reliable datagram awaiting acknowledgement."""

    payload: bytes
    frames: int
    attempts: int = 0
    next_at: float = 0.0
    #: Trace ids of the events whose frames this datagram carries --
    #: captured at first transmit so retransmission spans attach to the
    #: causing event's tree instead of minting fresh identities.
    trace_ids: tuple = ()
    #: Frame type names aboard (for retransmit-span attribution;
    #: control frames like Register carry no trace context by design).
    kinds: tuple = ()
    #: When the datagram last went on the wire; a retransmit span
    #: covers [last_sent_at, now] -- the backoff the event waited out.
    last_sent_at: float = 0.0


@dataclass
class _SendState:
    """Per-direction sender half of the reliability layer."""

    next_seq: int = 0
    #: Lowest seq this sender still guarantees (1 + highest abandoned).
    floor: int = 1
    unacked: Dict[int, _Unacked] = field(default_factory=dict)
    timer_id: Optional[int] = None


@dataclass
class _RecvState:
    """Per-direction receiver half: cursor + reorder buffer."""

    #: Highest seq delivered (or skipped under an advanced floor).
    cursor: int = 0
    #: Out-of-order datagrams held until the gap below them fills:
    #: seq -> (payload bytes, frame count, sent_at, wire bytes).
    buffer: Dict[int, tuple] = field(default_factory=dict)


class ChannelEndpoint:
    """One side of the channel: send frames, receive via a handler."""

    def __init__(self, channel: "UdpChannel", side: str):
        self._channel = channel
        self._side = side
        self.handler: Optional[Callable] = None
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_recv = 0
        self.bytes_recv = 0

    @property
    def channel(self) -> "UdpChannel":
        """The channel this endpoint is one side of (for byte_stats)."""
        return self._channel

    def on_frame(self, handler: Callable) -> None:
        """Install the receive handler for this endpoint."""
        self.handler = handler

    def send(self, frame) -> None:
        """Serialise and transmit ``frame`` to the peer endpoint.

        There is deliberately no return value: on a reliable channel a
        send either arrives exactly once or surfaces as a
        :class:`ChannelFault`; on a plain channel a loss is logged as a
        ``channel.loss`` flight-recorder event.  (The old boolean was
        ignored by every call site -- silent loss by API design.)
        """
        self.frames_sent += 1
        if self._channel.batch:
            self._channel._enqueue(self._side, frame)
            return
        data = encode_frame(frame)
        self.bytes_sent += len(data)
        self._channel._note_sent(len(data))
        self._channel._transmit(self._side, data, frames=1,
                                trace_ids=self._channel._trace_ids_of(frame),
                                kinds=self._channel._frame_kinds_of(frame))

    def drop_pending(self) -> int:
        """Discard this side's unflushed frames (its process died)."""
        return self._channel.drop_pending(self._side)


class UdpChannel:
    """A bidirectional, lossy, delayed datagram channel."""

    def __init__(self, sim, base_delay: float = 0.0002,
                 per_byte_delay: float = 2e-8, loss: float = 0.0,
                 seed: int = 0,
                 batch: bool = False, batch_window: float = 0.0,
                 reliable: bool = False,
                 retry_budget: int = 8,
                 rto_initial: float = 0.01,
                 rto_max: float = 0.08,
                 rto_jitter: float = 0.25,
                 chaos=None,
                 telemetry=None, span_name: str = "appvisor.rpc"):
        self.sim = sim
        self.base_delay = base_delay
        self.per_byte_delay = per_byte_delay
        self.loss = loss
        self.rng = random.Random(seed)
        self.batch = batch
        #: How long the first pending frame waits for company.  0.0
        #: still batches: the flush is scheduled as a fresh sim event,
        #: which fires after every same-instant send already queued.
        self.batch_window = batch_window
        #: Reliable-delivery layer (seq/ack/retransmit/dedup/reorder).
        self.reliable = reliable
        #: Retransmissions allowed per datagram before it is abandoned
        #: and a ChannelFault raised.
        self.retry_budget = retry_budget
        self.rto_initial = rto_initial
        self.rto_max = rto_max
        #: Jitter fraction: each backoff is stretched by a seeded
        #: uniform draw in [0, rto_jitter] to de-synchronise retries.
        self.rto_jitter = rto_jitter
        #: Optional ChaosProfile perturbing every datagram on the wire.
        self.chaos = chaos
        #: Callbacks invoked with a ChannelFault when a datagram
        #: exhausts its retry budget (reliable mode only).
        self.on_fault: List[Callable[[ChannelFault], None]] = []
        #: Optional Telemetry; when enabled each delivered datagram
        #: records one ``span_name`` span covering its time on the wire
        #: (tagged with frame and byte counts), the span-diff harness's
        #: RPC segment.
        self.telemetry = telemetry
        self.span_name = span_name
        self.proxy_end = ChannelEndpoint(self, "proxy")
        self.stub_end = ChannelEndpoint(self, "stub")
        self.datagrams_delivered = 0
        self.datagrams_lost = 0
        self.bytes_carried = 0
        self.batches_flushed = 0
        self.frames_batched = 0
        # Reliability counters (all zero when reliable=False).
        self.retransmits = 0
        self.dup_datagrams_dropped = 0
        self.corrupt_rejected = 0
        self.acks_sent = 0
        self.abandoned = 0
        self.faults_raised = 0
        # Per-direction transmit serialisation: the sender's interface
        # puts one datagram on the wire at a time, so a burst of sends
        # drains at per_byte_delay line rate and ordering is inherent
        # (a small datagram can never overtake a big one).
        self._tx_free_at = {"proxy": 0.0, "stub": 0.0}
        self._pending: dict = {"proxy": [], "stub": []}
        self._flush_scheduled = {"proxy": False, "stub": False}
        self._send_state = {"proxy": _SendState(), "stub": _SendState()}
        self._recv_state = {"proxy": _RecvState(), "stub": _RecvState()}

    def delay_for(self, nbytes: int) -> float:
        """One-way latency for an ``nbytes`` datagram on an idle link."""
        return self.base_delay + nbytes * self.per_byte_delay

    def _endpoint(self, side: str) -> ChannelEndpoint:
        return self.proxy_end if side == "proxy" else self.stub_end

    # -- batching ---------------------------------------------------------

    def _enqueue(self, from_side: str, frame) -> None:
        self._pending[from_side].append(frame)
        if not self._flush_scheduled[from_side]:
            self._flush_scheduled[from_side] = True
            self.sim.schedule(self.batch_window,
                              lambda: self._flush(from_side))

    def _flush(self, from_side: str) -> None:
        """Ship the side's pending frames as one datagram."""
        self._flush_scheduled[from_side] = False
        pending: List = self._pending[from_side]
        if not pending:
            return
        self._pending[from_side] = []
        if len(pending) == 1:
            frame = pending[0]
        else:
            frame = FrameBatch(frames=tuple(pending))
        data = encode_frame(frame)
        self._endpoint(from_side).bytes_sent += len(data)
        self._note_sent(len(data))
        self.batches_flushed += 1
        self.frames_batched += len(pending)
        self._transmit(from_side, data, frames=len(pending),
                       trace_ids=self._trace_ids_of(frame),
                       kinds=self._frame_kinds_of(frame))

    def drop_pending(self, side: str) -> int:
        """Discard a side's unflushed frames (its process just died).

        Returns how many frames were dropped.  A crash between sends
        and the tick-boundary flush loses exactly the unflushed tail --
        everything already flushed is on the wire and still arrives.
        A dead process retransmits nothing either: the side's unacked
        buffer is cleared and its retry timer cancelled.
        """
        dropped = len(self._pending[side])
        self._pending[side] = []
        state = self._send_state[side]
        state.unacked.clear()
        if state.timer_id is not None:
            self.sim.cancel(state.timer_id)
            state.timer_id = None
        return dropped

    def pending_frames(self, side: str) -> int:
        return len(self._pending[side])

    # -- the wire ---------------------------------------------------------

    def _trace_ids_of(self, frame) -> tuple:
        """Trace ids a datagram will carry, when anyone is looking.

        Computed only with telemetry on (the ids feed retransmission
        and delivery spans), so the disabled hot path stays unchanged.
        """
        if self.telemetry is not None and self.telemetry.enabled:
            return frame_trace_ids(frame)
        return ()

    def _frame_kinds_of(self, frame) -> tuple:
        """Distinct frame type names a datagram carries (telemetry on)."""
        if self.telemetry is not None and self.telemetry.enabled:
            if isinstance(frame, FrameBatch):
                return tuple(sorted({type(f).__name__
                                     for f in frame.frames}))
            return (type(frame).__name__,)
        return ()

    def _transmit(self, from_side: str, data: bytes, frames: int = 1,
                  trace_ids: tuple = (), kinds: tuple = ()) -> None:
        if not self.reliable:
            self._put_on_wire(from_side, data, frames, kind="data")
            return
        state = self._send_state[from_side]
        state.next_seq += 1
        seq = state.next_seq
        state.unacked[seq] = _Unacked(payload=data, frames=frames,
                                      trace_ids=trace_ids, kinds=kinds)
        self._send_seq(from_side, seq)

    def _send_seq(self, from_side: str, seq: int) -> None:
        """(Re)transmit one reliable datagram and arm its backoff."""
        state = self._send_state[from_side]
        record = state.unacked.get(seq)
        if record is None:
            return
        record.attempts += 1
        record.last_sent_at = self.sim.now
        env = envelope_for(seq, state.floor, record.payload)
        self._put_on_wire(from_side, encode_frame(env), record.frames,
                          kind="data")
        rto = min(self.rto_initial * (2 ** (record.attempts - 1)),
                  self.rto_max)
        if self.rto_jitter > 0:
            rto *= 1.0 + self.rng.random() * self.rto_jitter
        record.next_at = self.sim.now + rto
        self._arm_timer(from_side)

    def _arm_timer(self, from_side: str) -> None:
        state = self._send_state[from_side]
        if not state.unacked:
            return
        due = min(rec.next_at for rec in state.unacked.values())
        if state.timer_id is not None:
            self.sim.cancel(state.timer_id)
        state.timer_id = self.sim.schedule_at(
            due, self._retx_tick, from_side)

    def _retx_tick(self, from_side: str) -> None:
        """Retransmit every overdue datagram; abandon exhausted ones."""
        state = self._send_state[from_side]
        state.timer_id = None
        now = self.sim.now
        exhausted = []
        for seq in sorted(state.unacked):
            record = state.unacked[seq]
            if record.next_at > now + 1e-12:
                continue
            if record.attempts > self.retry_budget:
                exhausted.append(seq)
                continue
            self.retransmits += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("channel.retransmits")
                # The backoff this datagram just waited out, attributed
                # to the event whose frames it carries.  Retransmission
                # is pure added latency on the causal path, which is
                # exactly what the critical-path analyzer should see.
                tids = record.trace_ids
                self.telemetry.tracer.record_span(
                    f"{self.span_name}.retransmit",
                    start=record.last_sent_at,
                    trace_id=tids[0] if tids else None,
                    direction=from_side, seq=seq,
                    attempt=record.attempts,
                    frames=",".join(record.kinds))
            self._send_seq(from_side, seq)
        if exhausted:
            self._abandon(from_side, exhausted)
        self._arm_timer(from_side)

    def _abandon(self, from_side: str, seqs: List[int]) -> None:
        """Give up on datagrams that exhausted the retry budget.

        Everything at or below the highest exhausted seq is hopeless
        (the receiver delivers in order, so it cannot use seqs above a
        permanent gap until the floor passes it): drop them all,
        advance the floor, and surface one ChannelFault.
        """
        state = self._send_state[from_side]
        top = max(seqs)
        attempts = state.unacked[top].attempts
        for seq in [s for s in state.unacked if s <= top]:
            del state.unacked[seq]
            self.abandoned += 1
        state.floor = max(state.floor, top + 1)
        self.faults_raised += 1
        fault = ChannelFault(side=from_side, seq=top,
                             attempts=attempts, at=self.sim.now)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.faults")
            self.telemetry.tracer.event(
                "channel.fault", direction=from_side, seq=top,
                attempts=attempts)
        for callback in list(self.on_fault):
            callback(fault)

    def _note_sent(self, nbytes: int) -> None:
        """Account payload bytes a side handed to the wire (pre-loss,
        pre-envelope: the application-level send volume that the
        ``bytes/event`` derived metric divides by events)."""
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.bytes_sent", nbytes)

    def _note_loss(self, from_side: str, kind: str) -> None:
        """A datagram died on the wire: count it, leave a trace.

        In reliable mode the retry layer recovers; in plain mode this
        flight-recorder event is the only record a loss leaves (the
        old silent ``return False`` told nobody).
        """
        self.datagrams_lost += 1
        if (kind == "data" and self.telemetry is not None
                and self.telemetry.enabled):
            self.telemetry.metrics.inc("channel.datagrams_lost")
            if not self.reliable:
                self.telemetry.tracer.event(
                    "channel.loss", direction=from_side)

    def _put_on_wire(self, from_side: str, data: bytes, frames: int,
                     kind: str) -> None:
        """Charge transmission and schedule delivery of one datagram.

        The chaos hook runs here -- after the sender's NIC, before the
        receiver -- so its drops/dups/delays model the network itself,
        identically for plain datagrams, reliable envelopes, and acks.
        """
        if self.loss > 0 and self.rng.random() < self.loss:
            self._note_loss(from_side, kind)
            return
        deliveries = None
        if self.chaos is not None:
            deliveries = self.chaos.perturb(self.sim.now, from_side, data)
            if not deliveries:
                self._note_loss(from_side, kind)
                return
        self.bytes_carried += len(data)
        tx_start = max(self.sim.now, self._tx_free_at[from_side])
        tx_end = tx_start + len(data) * self.per_byte_delay
        self._tx_free_at[from_side] = tx_end
        sent_at = self.sim.now
        if deliveries is None:
            deliveries = ((0.0, data),)
        for extra_delay, payload in deliveries:
            self.sim.schedule_at(tx_end + self.base_delay + extra_delay,
                                 self._deliver, from_side, payload,
                                 frames, kind, sent_at)

    # -- receive path -----------------------------------------------------

    def _deliver(self, from_side: str, data: bytes, frames: int,
                 kind: str, sent_at: float) -> None:
        dest_side = "stub" if from_side == "proxy" else "proxy"
        try:
            frame = decode_frame(data)
        except SerializationError:
            # Corruption can break any layer of the codec (framing,
            # type tags, field values); the decoder reports every
            # parse failure as SerializationError, so each is one
            # rejected datagram, never a crash in the receive path.
            self._note_corrupt(dest_side)
            return
        if self.reliable and isinstance(frame, ChannelAck):
            if not ack_intact(frame):
                # A flipped ``cumulative`` would falsely acknowledge
                # data the receiver never saw; the next genuine ack
                # covers whatever this one carried.
                self._note_corrupt(dest_side)
                return
            self._handle_ack(dest_side, frame)
            return
        if self.reliable and isinstance(frame, SeqEnvelope):
            self._handle_envelope(dest_side, frame, sent_at)
            return
        if self.reliable and kind == "data":
            # A reliable peer only ever puts envelopes on the wire; a
            # decodable-but-wrong type means corruption rewrote the
            # frame tag.  Dropping it lets retransmission heal.
            self._note_corrupt(dest_side)
            return
        # Plain (unreliable) datagram: deliver as-is.
        self._count_delivery(from_side, frames, len(data), sent_at,
                             frame=frame)
        self._dispatch(dest_side, frame)

    def _note_corrupt(self, dest_side: str) -> None:
        self.corrupt_rejected += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.corrupt_rejected")

    def _count_delivery(self, from_side: str, frames: int, nbytes: int,
                        sent_at: float, frame=None) -> None:
        self.datagrams_delivered += 1
        dest = self._endpoint("stub" if from_side == "proxy" else "proxy")
        dest.frames_recv += frames
        dest.bytes_recv += nbytes
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.bytes_recv", nbytes)
            tids = frame_trace_ids(frame) if frame is not None else ()
            self.telemetry.tracer.record_span(
                self.span_name, start=sent_at,
                trace_id=tids[0] if tids else None,
                direction=from_side, frames=frames, nbytes=nbytes)

    def _dispatch(self, dest_side: str, frame) -> None:
        dest = self._endpoint(dest_side)
        if dest.handler is None:
            return
        if isinstance(frame, FrameBatch):
            for inner in frame.frames:
                if dest.handler is None:
                    break  # receiver detached mid-batch
                dest.handler(inner)
        else:
            dest.handler(frame)

    # -- reliability: receiver side ---------------------------------------

    def _handle_envelope(self, dest_side: str, env: SeqEnvelope,
                         sent_at: float) -> None:
        from_side = "proxy" if dest_side == "stub" else "stub"
        if not envelope_intact(env):
            # Bit-flipped payload: reject, send no ack -- the sender's
            # retransmission delivers a clean copy.
            self._note_corrupt(dest_side)
            return
        recv = self._recv_state[dest_side]
        if env.seq <= recv.cursor or env.seq in recv.buffer:
            # Duplicate (network dup, or a retransmit racing the ack).
            self.dup_datagrams_dropped += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("channel.dups_dropped")
            self._send_ack(dest_side)
            return
        recv.buffer[env.seq] = (env.payload, sent_at)
        # The sender's floor may have moved past datagrams it abandoned:
        # stop waiting for them so in-order delivery cannot wedge.
        self._drain(dest_side, from_side, floor=env.floor)
        self._send_ack(dest_side)

    def _drain(self, dest_side: str, from_side: str, floor: int) -> None:
        recv = self._recv_state[dest_side]
        while True:
            nxt = recv.cursor + 1
            if nxt in recv.buffer:
                payload, sent_at = recv.buffer.pop(nxt)
                recv.cursor = nxt
                try:
                    frame = decode_frame(payload)
                except SerializationError:
                    self._note_corrupt(dest_side)
                    continue
                self._count_delivery(from_side, self._frames_in(frame),
                                     len(payload), sent_at, frame=frame)
                self._dispatch(dest_side, frame)
            elif nxt < floor:
                # Abandoned by the sender: skip the gap.
                recv.cursor = nxt
            else:
                break

    @staticmethod
    def _frames_in(frame) -> int:
        return len(frame.frames) if isinstance(frame, FrameBatch) else 1

    def _send_ack(self, dest_side: str) -> None:
        recv = self._recv_state[dest_side]
        self.acks_sent += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.acks_sent")
        data = encode_frame(ack_for(recv.cursor))
        self._put_on_wire(dest_side, data, frames=0, kind="ack")

    # -- reliability: sender side -----------------------------------------

    def _handle_ack(self, sender_side: str, ack: ChannelAck) -> None:
        state = self._send_state[sender_side]
        acked = [s for s in state.unacked if s <= ack.cumulative]
        for seq in acked:
            del state.unacked[seq]
        if not state.unacked and state.timer_id is not None:
            self.sim.cancel(state.timer_id)
            state.timer_id = None

    # -- introspection -----------------------------------------------------

    def unacked_count(self, side: str) -> int:
        """Datagrams this side has sent but not yet had acknowledged."""
        return len(self._send_state[side].unacked)

    def byte_stats(self) -> Dict[str, int]:
        """Per-endpoint wire volume (payload bytes, both directions)."""
        return {
            "proxy_bytes_sent": self.proxy_end.bytes_sent,
            "proxy_bytes_recv": self.proxy_end.bytes_recv,
            "stub_bytes_sent": self.stub_end.bytes_sent,
            "stub_bytes_recv": self.stub_end.bytes_recv,
            "bytes_carried": self.bytes_carried,
        }

    def reliability_stats(self) -> Dict[str, int]:
        return {
            "retransmits": self.retransmits,
            "dup_datagrams_dropped": self.dup_datagrams_dropped,
            "corrupt_rejected": self.corrupt_rejected,
            "acks_sent": self.acks_sent,
            "abandoned": self.abandoned,
            "faults_raised": self.faults_raised,
        }
