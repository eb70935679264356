"""Golden wire bytes for every registered schema and enum.

One fixed instance of each registered dataclass, and every member of
each registered enum, is encoded with :func:`encode_value`; the sha256
of each encoding must equal the digest committed in ``GOLDEN``.  Any
change to the bytes on the wire -- a tag, the field order, the int
layout, a schema id -- fails here, so a faster codec can be checked
for bit-identical output.

Schema and enum ids follow registration order, which follows import
order, so the encodings are taken in a fresh interpreter that imports
every ``repro`` module in sorted name order.  Importing every module
also makes the coverage check complete: a newly registered class with
no fixture fails :func:`test_fixtures_cover_every_registered_schema`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.controller.api import HostEntry, TopoView
from repro.network.packet import Packet
from repro.openflow import actions as act
from repro.openflow import messages as ofmsg
from repro.openflow.match import Match
from repro.openflow.serialization import (
    SerializationError,
    decode_value,
    encode_value,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Encodes every fixture in a fresh interpreter; prints one JSON object.
_SCRIPT = f"""
import importlib, json, pkgutil, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import repro
for info in sorted(pkgutil.walk_packages(repro.__path__, "repro."),
                   key=lambda info: info.name):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
import test_wire_golden
print(json.dumps(test_wire_golden.snapshot()))
"""


def _packet(**overrides) -> Packet:
    fields = dict(eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:02",
                  eth_type=0x0800, vlan_id=None, ip_src="10.0.0.1",
                  ip_dst="10.0.0.2", ip_proto=6, tp_src=40000, tp_dst=80,
                  size=1500, payload="hello", ttl=32, pkt_id=7)
    fields.update(overrides)
    return Packet(**fields)


def fixtures() -> dict:
    """Class name -> one fixed instance, for every registered schema.

    Values span the codec's shapes: None, bools, negative and
    multi-byte varints (up to 2**70), floats, strings, bytes, lists,
    tuples, nested dataclasses and enums.
    """
    from repro.apps.firewall import DenyRule
    from repro.controller import events as ev
    from repro.core.appvisor import context  # noqa: F401 -- registers ContextDelta
    from repro.core.appvisor import rpc
    from repro.replication import frames as repl

    match = Match(in_port=1, eth_src="00:00:00:00:00:01",
                  eth_dst="00:00:00:00:00:02", eth_type=0x0800,
                  ip_dst="10.0.0.2", ip_proto=6, tp_dst=80)
    actions = (act.Output(port=3), act.SetEthDst(eth_dst="aa:bb"),
               act.Flood(), act.Drop())
    packet_in = ofmsg.PacketIn(xid=41, dpid=3, in_port=2, packet=_packet(),
                               reason=ofmsg.PacketInReason.ACTION,
                               buffer_id=256)
    flow_mod = ofmsg.FlowMod(xid=2**31 + 5, match=match,
                             command=ofmsg.FlowModCommand.DELETE_STRICT,
                             priority=1234, actions=actions,
                             idle_timeout=5.5, hard_timeout=60.0,
                             cookie=0xDEADBEEFCAFE, send_flow_removed=True,
                             out_port=9)
    flow_entry = ofmsg.FlowStatsEntry(
        match=match, priority=7, actions=(act.Output(port=1),),
        packet_count=5, byte_count=2**40, duration=2.25, idle_timeout=0.0,
        hard_timeout=30.0, cookie=-3)
    port_entry = ofmsg.PortStatsEntry(port=1, rx_packets=10, tx_packets=20,
                                      rx_bytes=300, tx_bytes=2**33,
                                      rx_dropped=0, tx_dropped=1)
    topo = TopoView(switches=(1, 2, 3),
                    links=((1, 2, 2, 1), (2, 3, 3, 2)), version=4)
    host = HostEntry(mac="00:00:00:00:00:01", ip="10.0.0.1", dpid=1, port=3)
    event_deliver = rpc.EventDeliver(app_name="learning_switch", seq=7,
                                     event=packet_in, trace_id=99)
    record = repl.RecordShip(epoch=2, index=17, txn_id=5,
                             app_name="learning_switch", dpid=3,
                             message=flow_mod, inverses=(flow_mod,),
                             applied_at=1.5, trace_id=99, auth=b"\x01\x02")
    instances = [
        match, flow_entry, port_entry,
        ofmsg.Hello(xid=1, version=1),
        ofmsg.EchoRequest(xid=2, payload=b"ping"),
        ofmsg.EchoReply(xid=3, payload=b"pong"),
        ofmsg.ErrorMsg(xid=4, err_type=1, code=2, reason="bad flow"),
        flow_mod,
        ofmsg.PacketOut(xid=6, packet=_packet(payload=""), in_port=2,
                        actions=(act.Flood(),), buffer_id=None),
        ofmsg.BarrierRequest(xid=7),
        ofmsg.BarrierReply(xid=8),
        ofmsg.FlowStatsRequest(xid=9, match=Match(eth_dst="d")),
        ofmsg.FlowStatsReply(xid=10, dpid=1, entries=[flow_entry]),
        ofmsg.PortStatsRequest(xid=11, port=None),
        ofmsg.PortStatsReply(xid=12, dpid=1, entries=[port_entry]),
        packet_in,
        ofmsg.FlowRemoved(xid=13, dpid=1, match=match, priority=9,
                          reason=ofmsg.FlowRemovedReason.HARD_TIMEOUT,
                          cookie=0, duration=1.25, packet_count=10,
                          byte_count=1000, idle_timeout=3.0),
        ofmsg.PortStatus(xid=14, dpid=2, port=4,
                         reason=ofmsg.PortStatusReason.DELETE,
                         link_up=False),
        *actions,
        act.ToController(),
        act.Enqueue(port=2, queue_id=1),
        act.SetEthSrc(eth_src="cc:dd"),
        act.SetIpSrc(ip_src="10.0.0.9"),
        act.SetIpDst(ip_dst="10.0.0.8"),
        host, topo,
        ev.SwitchJoin(dpid=1),
        ev.SwitchLeave(dpid=2),
        ev.LinkDiscovered(dpid_a=1, port_a=2, dpid_b=2, port_b=1),
        ev.LinkRemoved(dpid_a=2, port_a=3, dpid_b=3, port_b=2),
        ev.AppCrashed(app_name="firewall", reason="boom"),
        _packet(),
        DenyRule(ip_src="10.0.0.1", ip_dst=None, ip_proto=6, tp_dst=22),
        rpc.Register(app_name="learning_switch",
                     subscriptions=("PacketIn", "SwitchJoin"),
                     supports_deep_restore=True, resume_from_seq=12),
        event_deliver,
        rpc.AppOutput(app_name="learning_switch", seq=7, index=0, dpid=3,
                      message=flow_mod, trace_id=99),
        rpc.EventComplete(app_name="learning_switch", seq=7, output_count=2,
                          counter_deltas=(("flows", 2), ("drops", -1)),
                          log_lines=("learned",), trace_id=99),
        rpc.CrashReport(app_name="firewall", seq=8, error="KeyError: 3",
                        traceback_text="Traceback ...", log_lines=("x",),
                        trace_id=100),
        rpc.Heartbeat(app_name="firewall", stub_time=12.5, last_seq_done=8),
        rpc.RestoreCommand(app_name="firewall", offending_seq=8,
                           drop_seqs=(8, 9), trace_id=100),
        rpc.DeepRestoreCommand(app_name="firewall", offending_seq=8,
                               drop_seqs=(8,), trace_id=100),
        rpc.RestoreAck(app_name="firewall", restored_before_seq=8,
                       replayed_events=3, restore_cost=0.004, ok=False,
                       error="replay failed", sts_culprits=(5, 8),
                       trace_id=100),
        rpc.ContextPush(topo=topo, hosts=(host,)),
        rpc.ContextDelta(hosts=(host, HostEntry(mac="00:00:00:00:00:02",
                                                ip=None, dpid=2, port=1)),
                         topo=None),
        rpc.FrameBatch(frames=(event_deliver, rpc.ChannelAck(cumulative=3))),
        rpc.SeqEnvelope(seq=12, floor=10, crc=2**32 - 1,
                        payload=b"\x00\xff" * 4),
        rpc.ChannelAck(cumulative=2**70, crc=77),
        repl.AppDelta(app_name="learning_switch", last_seq=7,
                      events_completed=7),
        record,
        repl.TxnResolve(epoch=2, txn_id=5, outcome="commit", log_index=17,
                        resolve_seq=4, trace_id=99, leaf=2**63 - 1,
                        auth=b"sig"),
        repl.ReplHeartbeat(epoch=2, log_index=17, sent_at=3.25,
                           app_deltas=(repl.AppDelta("firewall", 8, 8),),
                           resolve_count=4, digest=2**62 + 1, auth=b""),
        repl.ReplAck(replica_id="b1", epoch=2, log_index=17,
                     resolve_count=4, digest=2**62 + 1, digest_floor=3,
                     auth=b"sig"),
        repl.ResyncRequest(replica_id="b1", epoch=2, from_index=10,
                           to_index=17, from_resolve=2, auth=b""),
    ]
    return {type(obj).__name__: obj for obj in instances}


class _Port(int):
    """An int subclass: travels as a plain varint."""


class _Name(str):
    """A str subclass: travels as a plain string."""


class _Pair(NamedTuple):
    port: int
    name: str


def edge_cases() -> dict:
    """Case name -> a value whose bytes depend on the encoder's type
    precedence (bool before int, enum before int, subclasses taking
    their base's layout, set order) or sit on a varint width edge."""
    return {
        "true": True,
        "one": 1,
        "bool_and_int": [True, 1, False, 0],
        "int_enum_as_int": ofmsg.FlowMod(
            xid=1, priority=ofmsg.FlowModCommand.MODIFY,
            out_port=ofmsg.PortStatusReason.DELETE),
        "int_subclass": _Port(8080),
        "str_subclass": _Name("eth0"),
        "named_tuple": _Pair(3, "up"),
        "defaultdict": defaultdict(list, {"b": [1], "a": []}),
        "empty_containers": ([], (), {}, set(), frozenset()),
        "mixed_set": {1, "a", (2, None), b"x", 2.5},
        "mixed_frozenset": frozenset({None, 0, "0"}),
        "varint_edges": (-64, -65, 63, 64, 8191, 8192,
                         2**76 - 1, -(2**76 - 1)),
        "negative_zero": -0.0,
    }


def snapshot() -> dict:
    """Registered names and the sha256 of each fixture's encoding."""
    from repro.openflow import serialization as codec

    def digest(value) -> str:
        return hashlib.sha256(encode_value(value)).hexdigest()[:16]

    return {
        "schemas": sorted(codec.schema_table()),
        "enums": sorted(cls.__name__ for cls in codec._enum_classes),
        "digests": {name: digest(obj) for name, obj in fixtures().items()},
        "enum_digests": {cls.__name__: digest(tuple(cls))
                         for cls in codec._enum_classes},
        "edge_digests": {name: digest(value)
                         for name, value in edge_cases().items()},
    }


#: First 16 hex digits of the sha256 of ``encode_value(fixture)`` per
#: class, and of ``encode_value(tuple(enum))`` per enum.
GOLDEN = {
    "AppCrashed": "12c1a5a7352dc3dd",
    "AppDelta": "62c485c569cc479d",
    "AppOutput": "b4a99c2f801cbc55",
    "BarrierReply": "c33ab7277918e54c",
    "BarrierRequest": "2639996e075a5288",
    "ChannelAck": "5dc9fb79ddabb08d",
    "ContextDelta": "4384d59bbaaa2f07",
    "ContextPush": "bf8233414e9c80b5",
    "CrashReport": "9655a513bf807ba9",
    "DeepRestoreCommand": "f80f6f08ed6d23c6",
    "DenyRule": "b17a283a4767416b",
    "Drop": "2aa9a9ecb5ba8015",
    "EchoReply": "67ffd7bf43eef08c",
    "EchoRequest": "61869f663c56fdab",
    "Enqueue": "f00626b2e8ec05ed",
    "ErrorMsg": "af1d8a28b213598e",
    "EventComplete": "085fcfbbcacbbbb7",
    "EventDeliver": "d5f93b02b5df2a95",
    "Flood": "d5cb83c7b197becb",
    "FlowMod": "2e21ac2923394278",
    "FlowRemoved": "350c1e37262c713a",
    "FlowStatsEntry": "faa73f8aae0ba062",
    "FlowStatsReply": "010b0f2617469238",
    "FlowStatsRequest": "e71a69f89f241605",
    "FrameBatch": "f552762cbd0ac48f",
    "Heartbeat": "d21dad654ea5f016",
    "Hello": "62fed613cc02e222",
    "HostEntry": "f363e2c5c7735ba3",
    "LinkDiscovered": "c05333b69e18468c",
    "LinkRemoved": "e9b4c349b2f6ab36",
    "Match": "afca744b28499fb2",
    "Output": "a329a8c60b5a6f52",
    "Packet": "33fa746c612e8723",
    "PacketIn": "de8990f0909c1091",
    "PacketOut": "3b6913633e5c54f9",
    "PortStatsEntry": "673f3b5c31b95cec",
    "PortStatsReply": "54f10b6cd8c0dc2c",
    "PortStatsRequest": "9f839985e8a0cdaf",
    "PortStatus": "74b4f751f6ce2117",
    "RecordShip": "55a62d6410facd2c",
    "Register": "62b3cb78e2db7276",
    "ReplAck": "0ec9c680e1a4cbc0",
    "ReplHeartbeat": "f4ae52cb55963f63",
    "RestoreAck": "6b2f7825758d85dd",
    "RestoreCommand": "d917adf874ec3baa",
    "ResyncRequest": "c76695688783148c",
    "SeqEnvelope": "228e9b646c4ecec7",
    "SetEthDst": "f2107f15fe7291cf",
    "SetEthSrc": "762b64be632d3d95",
    "SetIpDst": "f72450a614923ae1",
    "SetIpSrc": "a76c1f54510309ac",
    "SwitchJoin": "aa89c21b0acc2ae9",
    "SwitchLeave": "ebe2f31449de899f",
    "ToController": "96d1d85ccbaf13bd",
    "TopoView": "490b4f83f2ad9220",
    "TxnResolve": "571ea71a35eb8284",
}
GOLDEN_ENUMS = {
    "FlowModCommand": "087e0daa880aeb01",
    "FlowRemovedReason": "6f14b0f9fa70fcc1",
    "PacketInReason": "2cb408b51e34ed8e",
    "PortStatusReason": "d25c6e7b6da251f2",
}
#: The same digests for each value of ``edge_cases()``.
GOLDEN_EDGES = {
    "true": "9dcf97a184f32623",
    "one": "d26b715881de3752",
    "bool_and_int": "ca82ad979fe2b0d5",
    "int_enum_as_int": "ab91e67127be7960",
    "int_subclass": "daf9cc1971582b8f",
    "str_subclass": "6f16971605dc6d70",
    "named_tuple": "ad19da4d79568bb9",
    "defaultdict": "efe28431f2cb72d2",
    "empty_containers": "25958579d15357b8",
    "mixed_set": "0330c413e3119066",
    "mixed_frozenset": "46e17e22d009d3ae",
    "varint_edges": "9f7932fb4ecf9213",
    "negative_zero": "b9b8f72be2eec31d",
}


@pytest.fixture(scope="module")
def fresh():
    out = subprocess.run([sys.executable, "-c", _SCRIPT], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_fixtures_cover_every_registered_schema(fresh):
    assert fresh["schemas"] == sorted(fixtures())
    assert fresh["enums"] == sorted(GOLDEN_ENUMS)


def test_wire_bytes_match_golden(fresh):
    assert fresh["digests"] == GOLDEN
    assert fresh["enum_digests"] == GOLDEN_ENUMS


def test_type_precedence_edges_match_golden(fresh):
    assert fresh["edge_digests"] == GOLDEN_EDGES


def test_unregistered_subclass_of_registered_dataclass_raises():
    """Writers are cached by exact type, so a subclass of a registered
    dataclass must not borrow its base's writer: under an unregistered
    name it raises, before and after both types were first seen."""

    @dataclasses.dataclass(frozen=True)
    class UnregisteredMatch(Match):
        pass

    for _ in range(2):
        assert decode_value(encode_value(Match(in_port=1))) == Match(in_port=1)
        with pytest.raises(SerializationError):
            encode_value(UnregisteredMatch(in_port=1))
        with pytest.raises(SerializationError):
            encode_value([Match(), UnregisteredMatch()])


def test_fixtures_round_trip():
    for obj in fixtures().values():
        assert decode_value(encode_value(obj)) == obj
