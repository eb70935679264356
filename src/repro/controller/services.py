"""Controller services: topology, link discovery, devices, counters.

These are the FloodLight services the paper's prototype had to comment
out of its ported apps ("we had to comment out use of services, viz.,
counter-store").  We implement them fully so apps on both runtimes can
use them -- the AppVisor pushes read-only mirrors of the topology and
device tables to stubs, and counter increments travel with RPC replies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.api import HostEntry, TopoView
from repro.controller.events import LinkDiscovered, LinkRemoved
from repro.network.packet import ETH_TYPE_LLDP, Packet
from repro.openflow.actions import Output
from repro.openflow.messages import PacketIn, PacketOut, PortStatus

Canonical = Tuple[int, int, int, int]


def _canonical(dpid_a: int, port_a: int, dpid_b: int, port_b: int) -> Canonical:
    if (dpid_a, port_a) <= (dpid_b, port_b):
        return (dpid_a, port_a, dpid_b, port_b)
    return (dpid_b, port_b, dpid_a, port_a)


class TopologyService:
    """Tracks live switches and discovered inter-switch links."""

    def __init__(self, controller):
        self.controller = controller
        self._switches = set()
        self._links: Dict[Canonical, float] = {}  # canonical -> last_seen
        #: Every (dpid, port) that has EVER carried a discovered link.
        #: Sticky across link flaps: a trunk port briefly down must not
        #: be mistaken for an edge port (transit frames flooded onto it
        #: mid-flap would be mislearned as host locations, and apps
        #: would route traffic to a switch the host is not on).  Only a
        #: full :meth:`reset` reclassifies ports.
        self._internal_ports: set = set()
        self.version = 0
        # Recently removed links, newest last.  Crash-Pad's equivalence
        # transformation needs the topology as it was *before* a
        # failure event (the dead switch's links are already gone from
        # the live view by the time the SwitchLeave reaches any app).
        self._removed_history: List[Tuple[float, Canonical]] = []
        self._removed_history_max = 256

    # -- updates ---------------------------------------------------------

    def switch_joined(self, dpid: int) -> None:
        if dpid not in self._switches:
            self._switches.add(dpid)
            self.version += 1

    def switch_left(self, dpid: int) -> None:
        if dpid in self._switches:
            self._switches.discard(dpid)
            self.version += 1
        for link in [l for l in self._links if dpid in (l[0], l[2])]:
            self._remove_link(link)

    def record_link(self, dpid_a: int, port_a: int, dpid_b: int, port_b: int,
                    now: float) -> None:
        link = _canonical(dpid_a, port_a, dpid_b, port_b)
        is_new = link not in self._links
        self._links[link] = now
        self._internal_ports.add((link[0], link[1]))
        self._internal_ports.add((link[2], link[3]))
        if is_new:
            self.version += 1
            self.controller.dispatch(LinkDiscovered(*link))

    def handle_port_status(self, msg: PortStatus) -> None:
        if msg.link_up:
            return  # re-discovery will re-add the link
        for link in [
            l for l in self._links
            if (l[0], l[1]) == (msg.dpid, msg.port) or (l[2], l[3]) == (msg.dpid, msg.port)
        ]:
            self._remove_link(link)

    def expire_links(self, now: float, max_age: float) -> None:
        for link, last_seen in [
            (l, t) for l, t in self._links.items() if now - t > max_age
        ]:
            self._remove_link(link)

    def _remove_link(self, link: Canonical) -> None:
        if self._links.pop(link, None) is not None:
            self.version += 1
            self._removed_history.append((self.controller.sim.now, link))
            if len(self._removed_history) > self._removed_history_max:
                del self._removed_history[
                    : len(self._removed_history) - self._removed_history_max
                ]
            self.controller.dispatch(LinkRemoved(*link))

    def removed_links_since(self, since: float) -> List[Canonical]:
        """Links removed at or after ``since`` (pre-failure topology
        reconstruction for event transformations)."""
        return [link for t, link in self._removed_history if t >= since]

    def reset(self) -> None:
        """Drop all learned state (controller reboot)."""
        self._switches.clear()
        self._links.clear()
        self._internal_ports.clear()
        self.version += 1

    # -- queries -----------------------------------------------------------

    def view(self) -> TopoView:
        return TopoView(
            switches=tuple(sorted(self._switches)),
            links=tuple(sorted(self._links)),
            version=self.version,
        )

    def is_interswitch_port(self, dpid: int, port: int) -> bool:
        return (dpid, port) in self._internal_ports


class LinkDiscoveryService:
    """LLDP-based link discovery (FloodLight's LinkDiscoveryManager).

    Every ``interval`` seconds the service floods an LLDP probe out of
    every live port of every connected switch; the neighbouring switch
    punts the probe back to the controller, revealing the link.  Links
    not re-observed within ``max_age`` expire.
    """

    def __init__(self, controller, interval: float = 0.5):
        self.controller = controller
        self.interval = interval
        self.max_age = interval * 3
        self.probes_sent = 0
        self._stop = None

    def start(self) -> None:
        if self._stop is not None:
            return
        self.controller.sim.schedule(0.0, self._round)
        self._stop = self.controller.sim.every(self.interval, self._round)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _round(self) -> None:
        controller = self.controller
        if controller.crashed:
            return
        now = controller.sim.now
        for dpid in controller.connected_dpids():
            switch = controller.channels[dpid].switch
            for port in sorted(switch.live_ports()):
                probe = Packet(
                    eth_src=f"lldp:{dpid}",
                    eth_type=ETH_TYPE_LLDP,
                    payload=f"lldp:{dpid}:{port}",
                    size=64,
                )
                self.probes_sent += 1
                controller.send_to_switch(
                    dpid, PacketOut(packet=probe, actions=(Output(port),))
                )
        controller.topology.expire_links(now, self.max_age)

    def handle_lldp(self, dpid: int, msg: PacketIn) -> None:
        """An LLDP probe arrived at ``dpid``: record the link it reveals."""
        payload = msg.packet.payload or ""
        parts = payload.split(":")
        if len(parts) != 3 or parts[0] != "lldp":
            return
        try:
            src_dpid, src_port = int(parts[1]), int(parts[2])
        except ValueError:
            return
        self.controller.topology.record_link(
            src_dpid, src_port, dpid, msg.in_port, self.controller.sim.now
        )


class DeviceManager:
    """Learns host locations from PacketIns (FloodLight's DeviceManager).

    Hosts are only learned on edge ports; packets entering on a known
    inter-switch port are transit traffic, not evidence of a host.

    Every ``version`` bump made by :meth:`learn` logs the MAC it
    changed, so a reader that saw the table at some version can fetch
    just the entries changed since (:meth:`changes_since`).  The log
    holds at most one entry per host in the table: a reader further
    behind than that gets no answer, and a full copy of the table is no
    larger than the changes it missed.
    """

    def __init__(self, controller):
        self.controller = controller
        self._hosts: Dict[str, HostEntry] = {}
        self.version = 0
        #: MAC changed by each version bump after ``_log_base``, oldest
        #: first; ``_log_base + len(_log) == version`` while the log is
        #: complete.
        self._log: List[str] = []
        self._log_base = 0

    def learn(self, dpid: int, msg: PacketIn) -> None:
        packet = msg.packet
        if packet is None or packet.is_lldp():
            return
        if self.controller.topology.is_interswitch_port(dpid, msg.in_port):
            return
        mac = packet.eth_src
        entry = HostEntry(mac=mac, ip=packet.ip_src,
                          dpid=dpid, port=msg.in_port)
        if self._hosts.get(mac) != entry:
            self._hosts[mac] = entry
            self.version += 1
            self._log.append(mac)
            if len(self._log) > len(self._hosts):
                del self._log[0]
                self._log_base += 1

    def location(self, mac: str) -> Optional[HostEntry]:
        return self._hosts.get(mac)

    def all(self) -> Dict[str, HostEntry]:
        return dict(self._hosts)

    def changes_since(self, version: int) -> Optional[Tuple[HostEntry, ...]]:
        """The current entry of every host changed after ``version``.

        Entries come in the order their MACs first changed, so merging
        them into a copy of the table taken at ``version`` rebuilds the
        table, insertion order included.  Returns None when the log
        cannot answer exactly: ``version`` is older than the log or
        newer than the table, :meth:`reset` or :meth:`restore` ran
        since, or ``version`` was bumped without a log entry.
        """
        if (version < self._log_base or version > self.version
                or self._log_base + len(self._log) != self.version):
            return None
        changed = dict.fromkeys(self._log[version - self._log_base:])
        return tuple(self._hosts[mac] for mac in changed)

    def _restart_log(self) -> None:
        """Bump the version and start an empty log at it: no reader of
        an earlier version can be answered with changes any more."""
        self.version += 1
        self._log.clear()
        self._log_base = self.version

    def reset(self) -> None:
        self._hosts.clear()
        self._restart_log()

    def restore(self, entries: Dict[str, HostEntry]) -> None:
        """Reinstate snapshot ``entries`` over the current table.

        The next :meth:`changes_since` from any earlier version returns
        None, so every mirror of the table is rebuilt from a full copy.
        """
        self._hosts.update(entries)
        self._restart_log()


class CounterStore:
    """Named monotonic counters (FloodLight's ICounterStoreService)."""

    def __init__(self):
        self._counters: Dict[str, int] = {}

    def inc(self, name: str, delta: int = 1) -> int:
        self._counters[name] = self._counters.get(name, 0) + delta
        return self._counters[name]

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counters)

    def reset(self) -> None:
        self._counters.clear()
