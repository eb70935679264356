"""Property tests for the schema-interned wire codec.

Four contracts, checked with hypothesis over every RPC frame type:

1. **round trip** -- decode(encode(frame)) == frame, including
   FrameBatch nesting and OpenFlow payloads;
2. **int bound** -- an int past the varint bound is refused by
   :func:`encode_value` (never written as bytes the decoder rejects),
   and the checkpoint value codec falls back to pickle for it;
3. **trailing-default compatibility** -- a packed frame written by an
   older peer that doesn't know a trailing defaulted field (e.g.
   ``trace_id``) still decodes, with the default filled in;
4. **error contract** -- malformed bytes (arbitrary, or one byte of a
   real frame mutated) raise :class:`SerializationError` and nothing
   else.
"""

from __future__ import annotations

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.api import HostEntry, TopoView
from repro.core.appvisor import context  # noqa: F401 -- registers ContextDelta
from repro.core.appvisor import rpc
from repro.network.packet import Packet
from repro.openflow import messages as ofmsg
from repro.openflow.actions import Drop, Flood, Output
from repro.openflow.match import Match
from repro.openflow.serialization import (
    _schema_fields,
    _schema_ids,
    _T_DICT,
    _T_ENUM_ID,
    _T_FROZENSET,
    _T_LIST,
    _T_SCHEMA,
    _T_SET,
    _T_TUPLE,
    SerializationError,
    _varint,
    decode_state_value,
    decode_value,
    encode_state_value,
    encode_value,
)

# -- strategies -------------------------------------------------------

#: The varint bound: 11 LEB128 bytes carry ints in [-2**76, 2**76).
INT_BOUND = 2**76
wire_ints = st.integers(min_value=-INT_BOUND, max_value=INT_BOUND - 1)
#: Also ints past the bound, which encode_value must refuse.
ints = st.one_of(
    wire_ints,
    st.integers(min_value=-(2**130), max_value=2**130),
    st.sampled_from([INT_BOUND - 1, INT_BOUND, -INT_BOUND, -INT_BOUND - 1,
                     2**80, 2**128 - 1]),
)
small = st.integers(min_value=0, max_value=2**31)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(max_size=24)
blobs = st.binary(max_size=64)

scalars = st.one_of(st.none(), st.booleans(), ints, floats, names, blobs)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(names, inner, max_size=4),
        st.sets(st.one_of(ints, names), max_size=4),
        st.sets(st.one_of(ints, names), max_size=4).map(frozenset),
    ),
    max_leaves=12,
)

packets = st.builds(
    Packet,
    eth_src=names, eth_dst=names,
    eth_type=small, vlan_id=st.none() | small,
    ip_src=st.none() | names, ip_dst=st.none() | names,
    ip_proto=st.none() | small,
    tp_src=st.none() | small, tp_dst=st.none() | small,
    size=small, payload=names, ttl=small, pkt_id=small,
)

matches = st.builds(Match, in_port=st.none() | small,
                    eth_src=st.none() | names, eth_dst=st.none() | names,
                    eth_type=st.none() | small)
actions = st.one_of(st.builds(Output, port=small), st.builds(Flood),
                    st.builds(Drop))

packet_ins = st.builds(ofmsg.PacketIn, dpid=small, in_port=small,
                       packet=packets,
                       reason=st.sampled_from(ofmsg.PacketInReason),
                       buffer_id=st.none() | small)
flow_mods = st.builds(ofmsg.FlowMod, match=matches,
                      command=st.sampled_from(ofmsg.FlowModCommand),
                      priority=small,
                      actions=st.lists(actions, max_size=3).map(tuple),
                      idle_timeout=floats)
payload_messages = st.one_of(packet_ins, flow_mods,
                             st.builds(ofmsg.PacketOut, packet=packets,
                                       in_port=st.none() | small,
                                       buffer_id=st.none() | small,
                                       actions=st.lists(
                                           actions, max_size=3).map(tuple)))

host_entries = st.builds(HostEntry, mac=names, ip=st.none() | names,
                         dpid=small, port=small)
topo_views = st.builds(
    TopoView,
    switches=st.lists(small, max_size=4).map(tuple),
    links=st.lists(st.tuples(small, small, small, small),
                   max_size=4).map(tuple),
    version=small)

int_tuples = st.lists(small, max_size=4).map(tuple)
str_tuples = st.lists(names, max_size=4).map(tuple)

#: One strategy per RPC frame type -- every frame in the protocol's
#: inventory appears here, so a new frame without a strategy is caught
#: by test_every_frame_type_is_covered below.
FRAME_STRATEGIES = {
    rpc.Register: st.builds(rpc.Register, app_name=names,
                            subscriptions=str_tuples,
                            supports_deep_restore=st.booleans(),
                            resume_from_seq=small),
    rpc.EventDeliver: st.builds(rpc.EventDeliver, app_name=names,
                                seq=small, event=payload_messages,
                                trace_id=small),
    rpc.AppOutput: st.builds(rpc.AppOutput, app_name=names, seq=small,
                             index=small, dpid=small,
                             message=payload_messages, trace_id=small),
    rpc.EventComplete: st.builds(
        rpc.EventComplete, app_name=names, seq=small, output_count=small,
        counter_deltas=st.lists(st.tuples(names, wire_ints),
                                max_size=3).map(tuple),
        log_lines=str_tuples, trace_id=small),
    rpc.CrashReport: st.builds(rpc.CrashReport, app_name=names,
                               seq=small, error=names,
                               traceback_text=names,
                               log_lines=str_tuples, trace_id=small),
    rpc.Heartbeat: st.builds(rpc.Heartbeat, app_name=names,
                             stub_time=floats, last_seq_done=small),
    rpc.RestoreCommand: st.builds(rpc.RestoreCommand, app_name=names,
                                  offending_seq=small,
                                  drop_seqs=int_tuples, trace_id=small),
    rpc.DeepRestoreCommand: st.builds(rpc.DeepRestoreCommand,
                                      app_name=names,
                                      offending_seq=small,
                                      drop_seqs=int_tuples,
                                      trace_id=small),
    rpc.RestoreAck: st.builds(rpc.RestoreAck, app_name=names,
                              restored_before_seq=small,
                              replayed_events=small, restore_cost=floats,
                              ok=st.booleans(), error=names,
                              sts_culprits=int_tuples, trace_id=small),
    rpc.ContextPush: st.builds(rpc.ContextPush, topo=topo_views,
                               hosts=st.lists(host_entries,
                                              max_size=3).map(tuple)),
    rpc.ContextDelta: st.builds(rpc.ContextDelta,
                                hosts=st.lists(host_entries,
                                               max_size=3).map(tuple),
                                topo=st.none() | topo_views),
    rpc.SeqEnvelope: st.builds(rpc.SeqEnvelope, seq=small, floor=small,
                               crc=small, payload=blobs),
    rpc.ChannelAck: st.builds(rpc.ChannelAck, cumulative=small,
                              crc=small),
}

flat_frames = st.one_of(*FRAME_STRATEGIES.values())
#: Batches nest: a FrameBatch may carry another FrameBatch.
frame_batches = st.recursive(
    flat_frames,
    lambda inner: st.builds(rpc.FrameBatch,
                            frames=st.lists(inner, max_size=3).map(tuple)),
    max_leaves=6,
)
any_frame = st.one_of(flat_frames, frame_batches)


def test_every_frame_type_is_covered():
    """Every frozen dataclass in the rpc module has a strategy (so the
    property tests cannot silently skip a newly added frame type)."""
    frame_types = {
        obj for obj in vars(rpc).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == rpc.__name__
    }
    covered = set(FRAME_STRATEGIES) | {rpc.FrameBatch}
    assert frame_types == covered


@settings(max_examples=60, deadline=None)
@given(frame=any_frame)
def test_packed_round_trip(frame):
    data = rpc.encode_frame(frame)
    assert rpc.decode_frame(data) == frame


def _ints_in(value):
    if isinstance(value, int) and not isinstance(value, bool):
        yield value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _ints_in(k)
            yield from _ints_in(v)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _ints_in(item)


@settings(max_examples=60, deadline=None)
@given(value=values)
def test_plain_value_round_trip(value):
    """A value round-trips unless it holds an int past the varint
    bound, which encode_value refuses; the checkpoint value codec
    round-trips either way (pickle takes what the wire cannot)."""
    fits = all(-INT_BOUND <= i < INT_BOUND for i in _ints_in(value))
    try:
        data = encode_value(value)
    except SerializationError:
        assert not fits
    else:
        assert fits
        assert decode_value(data) == value
    assert decode_state_value(encode_state_value(value)) == value


def test_cyclic_state_values_fall_back_to_pickle():
    """A self-referencing list or dict cannot be written (it would
    recurse forever); encode_value refuses it with SerializationError
    and the checkpoint value codec round-trips it through pickle."""
    loop = []
    loop.append(loop)
    knot = {"n": 1}
    knot["self"] = knot
    for value in (loop, knot):
        with pytest.raises(SerializationError):
            encode_value(value)
        assert encode_state_value(value)[:1] == b"\x00"
    restored = decode_state_value(encode_state_value(loop))
    assert len(restored) == 1 and restored[0] is restored
    restored = decode_state_value(encode_state_value(knot))
    assert restored["n"] == 1 and restored["self"] is restored


@settings(max_examples=40, deadline=None)
@given(msg=payload_messages, xid=small)
def test_openflow_message_round_trip(msg, xid):
    msg.xid = xid
    decoded = decode_value(encode_value(msg))
    assert decoded == msg
    assert decoded.xid == xid


@settings(max_examples=40, deadline=None)
@given(frame=st.one_of(FRAME_STRATEGIES[rpc.EventDeliver],
                       FRAME_STRATEGIES[rpc.EventComplete],
                       FRAME_STRATEGIES[rpc.RestoreCommand]))
def test_trailing_default_trace_id(frame):
    """A packed frame from an older peer that never learned the
    trailing ``trace_id`` field decodes with the default (0)."""
    cls = type(frame)
    flds = dataclasses.fields(cls)
    assert flds[-1].name == "trace_id"
    # Hand-encode what an older peer would send: same schema id, one
    # fewer field on the wire (white-box: uses the codec's internals).
    sid = _schema_ids[cls.__name__]
    assert _schema_fields[sid] == flds
    # Values are self-delimiting, so the fields are concatenated.
    wire = (bytes([_T_SCHEMA]) + _varint(sid) + bytes([len(flds) - 1])
            + b"".join(encode_value(getattr(frame, f.name))
                       for f in flds[:-1]))
    decoded = decode_value(wire)
    assert decoded == dataclasses.replace(frame, trace_id=0)


# -- error contract -----------------------------------------------------


def _decodes_or_rejects(decode, data: bytes) -> None:
    """``decode(data)`` either succeeds or raises SerializationError;
    any other exception propagates and fails the test."""
    try:
        decode(data)
    except SerializationError:
        pass


def test_random_bytes_raise_only_serialization_error():
    rng = random.Random(0)
    for _ in range(20_000):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64)))
        _decodes_or_rejects(decode_value, data)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_raise_only_serialization_error(data):
    _decodes_or_rejects(decode_value, data)
    _decodes_or_rejects(rpc.decode_frame, data)


@pytest.mark.parametrize("frame_type", [*FRAME_STRATEGIES, rpc.FrameBatch],
                         ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_frames_raise_only_serialization_error(frame_type, data):
    strategy = (st.builds(rpc.FrameBatch,
                          frames=st.lists(flat_frames, max_size=3).map(tuple))
                if frame_type is rpc.FrameBatch
                else FRAME_STRATEGIES[frame_type])
    frame = data.draw(strategy)
    wire = bytearray(encode_value(frame))
    pos = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    wire[pos] = data.draw(st.integers(min_value=0, max_value=255)
                          .filter(lambda b: b != wire[pos]))
    _decodes_or_rejects(rpc.decode_frame, bytes(wire))


def test_trailing_bytes_are_rejected():
    """A buffer holds exactly one value: bytes after it are an error,
    not silently ignored."""
    frame = rpc.ChannelAck(cumulative=3, crc=7)
    for wire in (encode_value(5) + b"garbage",
                 encode_value(frame) + b"\x00",
                 encode_value([1, "x"]) + encode_value(None)):
        with pytest.raises(SerializationError):
            decode_value(wire)
    with pytest.raises(SerializationError):
        rpc.decode_frame(rpc.encode_frame(frame) + b"\x00")
    with pytest.raises(SerializationError):
        decode_state_value(encode_state_value({"k": 1}) + b"\x00")


@pytest.mark.parametrize("wire", [
    bytes([_T_LIST]) + struct.pack("!q", -5),
    bytes([_T_TUPLE]) + struct.pack("!q", -1),
    bytes([_T_DICT]) + _varint(-1),
    bytes([_T_SET]) + _varint(-2),
    bytes([_T_FROZENSET]) + _varint(-1),
], ids=["list", "tuple", "dict", "set", "frozenset"])
def test_negative_lengths_are_rejected(wire):
    """A container length below zero is malformed; it must not decode
    as an empty container."""
    with pytest.raises(SerializationError):
        decode_value(wire)


@pytest.mark.parametrize("tag", [_T_SCHEMA, _T_ENUM_ID])
def test_negative_ids_are_rejected(tag):
    """Zigzag varints can carry negative ids; they must not index the
    registries from the end (a wrong class, silently)."""
    wire = bytes([tag]) + _varint(-1) + _varint(0)
    with pytest.raises(SerializationError):
        decode_value(wire)
