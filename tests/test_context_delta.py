"""Incremental context pushes: the device table's change log, the
ContextDelta frame, and the stub caches it keeps in step.

The contract: after every context frame the stub applies, its host
cache equals the controller's device table -- entries and insertion
order -- at the moment the proxy sent the frame, and its topology
cache equals the topology view of that moment.  Deltas carry exactly
the hosts changed since the previous push; anything the change log
cannot answer exactly (a reset, a guard restore, a gap, a channel
fault) falls back to a full ContextPush.
"""

from __future__ import annotations

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import LearningSwitch
from repro.core.appvisor import rpc
from repro.core.appvisor.channel import ChannelFault
from repro.core.guard import ControllerGuard
from repro.core.runtime import LegoSDNRuntime
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.packet import Packet
from repro.network.topology import linear_topology, ring_topology
from repro.openflow.messages import PacketIn
from repro.workloads import TrafficWorkload

#: The proxy's detection/push tick (AppVisorProxy's check_interval).
TICK = 0.05
#: Ports no link is ever discovered on, so learning there is edge-port
#: evidence of a host.
EDGE_PORTS = (101, 102, 103)
CONTEXT_FRAMES = (rpc.ContextPush, rpc.ContextDelta)


def _learn(devices, index: int, dpid: int, port: int) -> None:
    mac = f"02:00:00:00:00:{index:02x}"
    packet = Packet(eth_src=mac, ip_src=f"10.9.0.{index}")
    devices.learn(dpid, PacketIn(dpid=dpid, in_port=port, packet=packet))


def _deployment(**runtime_kwargs):
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, **runtime_kwargs)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(0.5)
    return net, runtime


class ContextObserver:
    """Checks every context frame the stub applies against the tables
    the proxy saw when it sent that frame.

    ``lose_next`` makes the next context frame vanish before the stub
    applies it, as if the channel abandoned its datagram, and reports
    the proxy-side ChannelFault the channel raises at that point.  A
    reliable channel delivers in order, so frames sent before the fault
    reach the stub only after it; they were built on the lost frame and
    may leave older rows in place, so only frames sent after the fault
    are held to the contract.
    """

    def __init__(self, runtime, name: str = "learning_switch"):
        controller = runtime.controller
        self.stub = runtime.stubs[name]
        channel = runtime.channels[name]
        self.in_flight = collections.deque()
        self.applied = collections.Counter()
        self.lose_next = False
        self.lost = 0
        send = channel.proxy_end.send
        handler = channel.stub_end.handler

        def observed_send(frame):
            if isinstance(frame, CONTEXT_FRAMES):
                self.in_flight.append(
                    [list(controller.devices.all().items()),
                     controller.topology.view()])
            send(frame)

        def observed_handler(frame):
            if not isinstance(frame, CONTEXT_FRAMES):
                handler(frame)
                return
            expected = self.in_flight.popleft()
            if self.lose_next:
                self.lose_next = False
                self.lost += 1
                for pending in self.in_flight:
                    pending[0] = None
                runtime.proxy.note_channel_fault(name, ChannelFault(
                    side="proxy", seq=0, attempts=0,
                    at=controller.sim.now))
                return
            handler(frame)
            self.applied[type(frame).__name__] += 1
            hosts, topo = expected
            if hosts is not None:
                assert list(self.stub.host_cache.items()) == hosts
                assert self.stub.topo_cache == topo

        channel.proxy_end.send = observed_send
        channel.stub_end.handler = observed_handler


class TestChangeLog:
    def test_changes_since_lists_each_changed_host_once(self):
        net, runtime = _deployment()
        devices = net.controller.devices
        for index in (5, 6, 7):
            _learn(devices, index, 2, 103)
        base = devices.version
        _learn(devices, 1, 1, 101)
        _learn(devices, 2, 1, 102)
        _learn(devices, 1, 2, 101)  # host 1 moves
        _learn(devices, 1, 2, 101)  # no change: no version bump
        assert devices.version == base + 3
        changed = devices.changes_since(base)
        assert [e.mac for e in changed] == ["02:00:00:00:00:01",
                                            "02:00:00:00:00:02"]
        assert changed[0] == devices.location("02:00:00:00:00:01")
        assert changed[0].dpid == 2
        assert devices.changes_since(base + 2) == (changed[0],)
        assert devices.changes_since(devices.version) == ()

    def test_unanswerable_bases_return_none(self):
        net, runtime = _deployment()
        devices = net.controller.devices
        _learn(devices, 1, 1, 101)
        base = devices.version
        assert devices.changes_since(base + 1) is None  # in the future
        devices.reset()
        assert devices.changes_since(base) is None
        _learn(devices, 2, 1, 101)
        after_reset = devices.version
        devices.restore({})
        assert devices.changes_since(after_reset) is None
        _learn(devices, 3, 1, 102)
        gap_base = devices.version
        devices.version += 1  # a bump the log never saw
        assert devices.changes_since(gap_base) is None

    def test_log_is_bounded_by_table_size(self):
        net, runtime = _deployment()
        devices = net.controller.devices
        devices.reset()
        start = devices.version
        for hop in range(10):
            _learn(devices, 1, 1 + hop % 2, 101)
            _learn(devices, 2, 1 + hop % 2, 102)
        assert len(devices._log) == len(devices.all()) == 2
        assert devices.changes_since(start) is None
        assert len(devices.changes_since(devices.version - 2)) == 2


_OPS = st.one_of(
    st.tuples(st.just("learn"), st.integers(0, 7),
              st.sampled_from((1, 2)), st.sampled_from(EDGE_PORTS)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("guard-restore")),
    st.tuples(st.just("fault")),
    st.tuples(st.just("wait"), st.sampled_from((0.0, 0.02, TICK, 2 * TICK))),
)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=25))
def test_stub_cache_matches_table_after_every_push(ops):
    """Random learns and moves, resets, guard restores and abandoned
    datagrams: every applied push leaves the stub equal to the table."""
    net, runtime = _deployment()
    observer = ContextObserver(runtime)
    devices = net.controller.devices
    snapshot = devices.all()
    for op in ops:
        kind = op[0]
        if kind == "learn":
            _learn(devices, *op[1:])
        elif kind == "reset":
            devices.reset()
        elif kind == "snapshot":
            snapshot = devices.all()
        elif kind == "guard-restore":
            # ControllerGuard.reboot_with_restore: a reboot empties the
            # table, then the snapshot is laid over it.
            devices.reset()
            devices.restore(snapshot)
        elif kind == "fault":
            # Force a push and lose it (or the one already in flight).
            observer.lose_next = True
            _learn(devices, 99, 1, 103)
            _learn(devices, 99, 2, 103)
            net.run_for(TICK + 0.01)
            assert not observer.lose_next, "no push was sent to lose"
        else:
            net.run_for(op[1])
    net.run_for(3 * TICK)
    assert not observer.in_flight
    assert observer.stub.host_cache == devices.all()


def test_delta_rows_equal_distinct_macs_changed_between_pushes():
    """In a seeded traffic run, each delta carries exactly the hosts
    whose entries changed since the previous push, once each, in
    first-change order -- and the run sends no full push but the one
    at registration."""
    net = Network(ring_topology(4, 3), seed=7)
    runtime = LegoSDNRuntime(net.controller)
    runtime.launch_app(LearningSwitch())
    devices = net.controller.devices
    changed = []
    learn = devices.learn

    def logged_learn(dpid, msg):
        before = devices.version
        learn(dpid, msg)
        if devices.version != before:
            changed.append(msg.packet.eth_src)

    devices.learn = logged_learn
    frames = []
    channel = runtime.channels["learning_switch"]
    send = channel.proxy_end.send

    def recording_send(frame):
        if isinstance(frame, CONTEXT_FRAMES):
            frames.append((frame, list(changed), devices.all()))
            changed.clear()
        send(frame)

    channel.proxy_end.send = recording_send
    net.start()
    net.run_for(1.0)
    TrafficWorkload(net, rate=80.0, seed=7, selection="random").start(2.0)
    net.run_for(3.0)

    deltas = [entry for entry in frames
              if isinstance(entry[0], rpc.ContextDelta)]
    fulls = [entry for entry in frames
             if isinstance(entry[0], rpc.ContextPush)]
    assert len(fulls) == 1
    assert len(deltas) >= 5
    rows = 0
    for frame, macs, table in deltas:
        distinct = list(dict.fromkeys(macs))
        assert [h.mac for h in frame.hosts] == distinct
        assert list(frame.hosts) == [table[mac] for mac in distinct]
        rows += len(frame.hosts)
    assert rows == sum(len(set(macs)) for _, macs, _ in deltas)
    # Every host reached the stub, each row carried far fewer times
    # than a full push per tick would have carried it.
    stub = runtime.stubs["learning_switch"]
    assert stub.host_cache == devices.all()
    assert rows < len(deltas) * len(devices.all())


def test_proxy_side_channel_fault_resyncs_the_stub():
    """Budget exhaustion on the proxy->stub direction abandons deltas;
    the fault makes the next push full, so the stub converges."""
    profile = ChaosProfile(seed=0)
    net, runtime = _deployment(channel_retry_budget=2,
                               chaos=lambda name: profile)
    devices = net.controller.devices
    channel = runtime.channels["learning_switch"]
    stub = runtime.stubs["learning_switch"]
    faults = []
    channel.on_fault.append(faults.append)
    profile.partition(net.sim.now, 0.3, side="proxy")
    _learn(devices, 1, 1, 101)
    _learn(devices, 2, 2, 101)
    net.run_for(0.15)
    _learn(devices, 3, 1, 102)
    net.run_for(0.5)
    assert any(fault.side == "proxy" for fault in faults)
    assert stub.host_cache == devices.all()
    assert len(stub.host_cache) == 3


def test_plain_channel_sends_only_full_pushes():
    """Without the reliable layer a lost datagram goes unreported, so a
    delta could be lost for good: the proxy sends whole pushes."""
    net, runtime = _deployment(channel_reliable=False)
    observer = ContextObserver(runtime)
    for index in range(3):
        _learn(net.controller.devices, index, 1, 101)
        net.run_for(TICK)
    net.run_for(TICK)
    assert observer.applied["ContextPush"] == 3
    assert observer.applied["ContextDelta"] == 0


def test_guarded_reboot_refreshes_every_stub():
    net = Network(ring_topology(4, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.5)
    net.reachability(wait=1.0)
    guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
    guard.start()
    net.run_for(1.0)
    net.controller.crash(RuntimeError("bug"), culprit="t")
    net.run_for(0.5)
    assert guard.reboot_with_restore()
    net.run_for(2 * TICK)
    assert net.controller.devices.all()
    for stub in runtime.stubs.values():
        assert stub.host_cache == net.controller.devices.all()

