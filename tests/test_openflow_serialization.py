"""Unit tests for the wire codec: every message type round-trips."""

import pytest

from repro.network.packet import Packet, tcp_packet
from repro.openflow.actions import Drop, Flood, Output, SetEthDst
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortStatusReason,
)
from repro.openflow.serialization import (
    _T_SCHEMA,
    SerializationError,
    _varint,
    decode_value,
    encode_value,
    register_dataclass,
    register_enum,
)


def roundtrip(msg):
    decoded = decode_value(encode_value(msg))
    assert decoded == msg
    assert decoded.xid == msg.xid
    return decoded


class TestMessageRoundTrips:
    def test_hello(self):
        roundtrip(Hello(version=3))

    def test_echo(self):
        roundtrip(EchoRequest(payload=b"ping"))
        roundtrip(EchoReply(payload=b"pong"))

    def test_error(self):
        roundtrip(ErrorMsg(err_type=1, code=2, reason="bad flow"))

    def test_flow_mod_full(self):
        roundtrip(FlowMod(
            match=Match(in_port=1, eth_dst="00:00:00:00:00:02", tp_dst=80),
            command=FlowModCommand.DELETE_STRICT,
            priority=1234,
            actions=(Output(3), SetEthDst(eth_dst="aa"), Flood(), Drop()),
            idle_timeout=5.5,
            hard_timeout=60.0,
            cookie=0xDEAD,
            send_flow_removed=True,
            out_port=9,
        ))

    def test_packet_out_with_packet(self):
        pkt = tcp_packet("a", "b", "1.1.1.1", "2.2.2.2", payload="hello")
        decoded = roundtrip(PacketOut(packet=pkt, in_port=2,
                                      actions=(Flood(),)))
        assert decoded.packet.payload == "hello"

    def test_packet_in(self):
        pkt = Packet(eth_src="x", eth_dst="y", payload="data")
        decoded = roundtrip(PacketIn(dpid=3, in_port=1, packet=pkt,
                                     reason=PacketInReason.ACTION))
        assert decoded.reason == PacketInReason.ACTION
        assert isinstance(decoded.reason, PacketInReason)

    def test_flow_removed(self):
        roundtrip(FlowRemoved(dpid=1, match=Match(eth_dst="d"), priority=9,
                              reason=FlowRemovedReason.IDLE_TIMEOUT,
                              duration=1.25, packet_count=10, byte_count=1000))

    def test_port_status(self):
        roundtrip(PortStatus(dpid=2, port=4, reason=PortStatusReason.MODIFY,
                             link_up=False))

    def test_barrier(self):
        roundtrip(BarrierRequest())
        roundtrip(BarrierReply())

    def test_stats_request_reply(self):
        roundtrip(FlowStatsRequest(match=Match(eth_dst="d")))
        roundtrip(FlowStatsReply(dpid=1, entries=[
            FlowStatsEntry(match=Match(eth_dst="d"), priority=1,
                           actions=(Output(1),), packet_count=5,
                           byte_count=500, duration=2.0,
                           idle_timeout=0.0, hard_timeout=0.0),
        ]))
        roundtrip(PortStatsRequest(port=None))
        roundtrip(PortStatsReply(dpid=1, entries=[
            PortStatsEntry(port=1, rx_packets=10, tx_packets=20),
        ]))


class TestWireFormat:
    def test_bigger_payload_bigger_frame(self):
        small = PacketOut(packet=Packet(payload="x"), actions=(Flood(),))
        big = PacketOut(packet=Packet(payload="x" * 500), actions=(Flood(),))
        assert len(encode_value(big)) > len(encode_value(small))

    def test_truncated_buffer_raises(self):
        data = encode_value(Hello())
        with pytest.raises(SerializationError):
            decode_value(data[:5])
        with pytest.raises(SerializationError):
            decode_value(data[:-2])

    def test_garbage_type_id_raises(self):
        wire = bytes([_T_SCHEMA]) + _varint(10**6) + bytes([0])
        with pytest.raises(SerializationError):
            decode_value(wire)


class TestValueCodec:
    def test_primitives(self):
        for value in (None, True, False, 0, -5, 2**40, 1.5, "text", b"bytes"):
            assert decode_value(encode_value(value)) == value

    def test_containers(self):
        value = [1, "two", (3, None), [True, b"x"]]
        decoded = decode_value(encode_value(value))
        assert decoded == [1, "two", (3, None), [True, b"x"]]

    def test_nested_dataclasses(self):
        value = (Match(eth_dst="d"), [Output(1), Flood()])
        assert decode_value(encode_value(value)) == value

    def test_unregistered_dataclass_raises(self):
        from dataclasses import dataclass

        @dataclass
        class Alien:
            x: int = 1

        with pytest.raises(SerializationError):
            encode_value(Alien())

    def test_unregistered_enum_raises(self):
        import enum

        class Colour(enum.IntEnum):
            RED = 1

        with pytest.raises(SerializationError):
            encode_value(Colour.RED)

    def test_late_registration_is_picked_up(self):
        """Registration clears the encoder's type cache: a type refused
        before it was registered encodes once it is."""
        import enum
        from dataclasses import dataclass

        @dataclass
        class LateRecord:
            x: int = 1

        class LateColour(enum.IntEnum):
            RED = 1

        encode_value(Match())
        for value in (LateRecord(), LateColour.RED):
            with pytest.raises(SerializationError):
                encode_value(value)
        register_dataclass(LateRecord)
        register_enum(LateColour)
        assert decode_value(encode_value(LateRecord(x=5))) == LateRecord(x=5)
        assert decode_value(encode_value(LateColour.RED)) is LateColour.RED

    def test_unserialisable_value_raises(self):
        with pytest.raises(SerializationError):
            encode_value(object())
