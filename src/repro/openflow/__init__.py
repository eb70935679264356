"""OpenFlow-1.0-style protocol substrate.

This subpackage models the slice of OpenFlow that the LegoSDN paper's
components exercise: flow matches, actions, the controller<->switch
message set, priority-ordered flow tables with timeouts and counters,
the *inversion algebra* NetLog relies on ("every state-altering control
message is invertible"), and a byte-level wire format used by the
AppVisor proxy/stub RPC channel.
"""

from repro.openflow.actions import (
    Action,
    Drop,
    Enqueue,
    Flood,
    Output,
    SetEthDst,
    SetEthSrc,
    SetIpDst,
    SetIpSrc,
    ToController,
)
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
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    Message,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortStatusReason,
)
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.inversion import CounterRecord, InversionResult, invert

__all__ = [
    "Action",
    "BarrierReply",
    "BarrierRequest",
    "CounterRecord",
    "Drop",
    "EchoReply",
    "EchoRequest",
    "Enqueue",
    "ErrorMsg",
    "Flood",
    "FlowEntry",
    "FlowMod",
    "FlowModCommand",
    "FlowRemoved",
    "FlowRemovedReason",
    "FlowStatsReply",
    "FlowStatsRequest",
    "FlowTable",
    "Hello",
    "InversionResult",
    "Match",
    "Message",
    "Output",
    "PacketIn",
    "PacketInReason",
    "PacketOut",
    "PortStatsReply",
    "PortStatsRequest",
    "PortStatus",
    "PortStatusReason",
    "SetEthDst",
    "SetEthSrc",
    "SetIpDst",
    "SetIpSrc",
    "ToController",
    "invert",
]
