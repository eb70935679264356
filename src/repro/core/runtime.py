"""The LegoSDN runtime: AppVisor + NetLog + Crash-Pad, composed.

This is the drop-in replacement for
:class:`~repro.controller.monolithic.MonolithicRuntime`: same
``launch_app`` surface, opposite failure behaviour.  Each launched app
gets its own sandboxed stub, UDP channel, checkpoint store, and
heartbeat stream; the proxy wires them into the controller and routes
failures through Crash-Pad.

"LegoSDN does not require any modifications to the SDN controller or
the SDN-Apps" -- apps written for the monolithic runtime run here
unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.base import SDNApp
from repro.core.appvisor.channel import UdpChannel
from repro.core.appvisor.isolation import ResourceLimits
from repro.core.appvisor.proxy import AppVisorProxy
from repro.core.appvisor.stub import AppVisorStub
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.core.crashpad.interval import CheckpointPolicy
from repro.core.crashpad.policy_lang import PolicyTable
from repro.core.crashpad.recovery import CrashPad
from repro.core.crashpad.ticket import TicketStore


class LegoSDNRuntime:
    """Hosts SDN-Apps in isolated, recoverable sandboxes."""

    def __init__(self, controller, mode: str = "netlog",
                 policy_table: Optional[PolicyTable] = None,
                 byzantine_check: bool = False,
                 shutdown_on_critical: bool = False,
                 checkpoint_interval: int = 1,
                 heartbeat_interval: float = 0.1,
                 channel_base_delay: float = 0.0002,
                 channel_per_byte_delay: float = 2e-8,
                 channel_loss: float = 0.0,
                 channel_batch: bool = True,
                 channel_reliable: bool = True,
                 channel_retry_budget: int = 8,
                 chaos=None,
                 checkpoint_base_cost: float = 0.010,
                 checkpoint_per_byte_cost: float = 1e-7,
                 checkpoint_encode_per_byte_cost: float = 5e-9,
                 checkpoint_deferred: bool = True,
                 checkpoint_adaptive: bool = False,
                 checkpoint_max_tail: int = 64,
                 parallel_lanes: bool = False,
                 seed: int = 0):
        self.controller = controller
        self.sim = controller.sim
        self.mode = mode
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_interval = heartbeat_interval
        self.channel_base_delay = channel_base_delay
        self.channel_per_byte_delay = channel_per_byte_delay
        self.channel_loss = channel_loss
        #: Batched RPC: coalesce same-instant proxy<->stub frames into
        #: one datagram per tick (one base_delay, one loss roll).  On
        #: by default at the runtime level; raw UdpChannel construction
        #: stays unbatched.
        self.channel_batch = channel_batch
        #: Reliable RPC: seq/ack/retransmit/dedup on every proxy<->stub
        #: channel, so loss, duplication, and reordering degrade into
        #: latency instead of wedged event loops.  On by default -- at
        #: 0% loss the only cost is the envelope bytes and the ack
        #: datagrams, neither on the event critical path.
        self.channel_reliable = channel_reliable
        self.channel_retry_budget = channel_retry_budget
        #: Optional chaos injection: a ChaosProfile applied to every
        #: app channel, or a callable ``app_name -> profile-or-None``
        #: for per-app profiles.
        self.chaos = chaos
        self.checkpoint_base_cost = checkpoint_base_cost
        self.checkpoint_per_byte_cost = checkpoint_per_byte_cost
        self.checkpoint_encode_per_byte_cost = checkpoint_encode_per_byte_cost
        #: Move checkpoint encoding off the event path: takes capture
        #: cheap references, the stub heartbeat drains the encodes.
        self.checkpoint_deferred = checkpoint_deferred
        #: Adaptive interval policy: tighten to per-event durable
        #: checkpoints while HealthWatchdog (when attached) or a recent
        #: crash signals elevated risk.
        self.checkpoint_adaptive = checkpoint_adaptive
        #: Hard bound on events since the last durable image.
        self.checkpoint_max_tail = checkpoint_max_tail
        self.seed = seed
        self.crashpad = CrashPad(policy_table=policy_table,
                                 tickets=TicketStore())
        self.proxy = AppVisorProxy(
            controller,
            mode=mode,
            crashpad=self.crashpad,
            byzantine_check=byzantine_check,
            shutdown_on_critical=shutdown_on_critical,
            parallel_lanes=parallel_lanes,
        )
        self.stubs: Dict[str, AppVisorStub] = {}
        self.channels: Dict[str, UdpChannel] = {}
        # The proxy lives in the controller process: when that process
        # dies, its unflushed batched frames die with it (the stub side
        # survives and keeps its own pending tail).
        controller.crash_callbacks.append(self._on_controller_crash)

    def _on_controller_crash(self, exc, culprit) -> None:
        for channel in self.channels.values():
            channel.drop_pending("proxy")

    # -- app lifecycle ----------------------------------------------------

    def launch_app(self, app_or_factory,
                   limits: Optional[ResourceLimits] = None,
                   checkpoint_interval: Optional[int] = None,
                   replica_factory=None) -> AppVisorStub:
        """Host an app (instance or zero-arg factory) in its own sandbox.

        Unlike the monolithic runtime, no factory is *needed* --
        LegoSDN recovers apps by checkpoint restore, never by
        re-instantiation -- but factories are accepted so experiment
        code can drive both runtimes identically.  When a factory is
        given (or ``replica_factory`` explicitly), the stub also gains
        STS-style minimisation of cumulative multi-event bugs (§5),
        which needs scratch replicas of the app.
        """
        if isinstance(app_or_factory, SDNApp):
            app = app_or_factory
        else:
            app = app_or_factory()
            if replica_factory is None:
                replica_factory = app_or_factory
        if app.name in self.stubs:
            raise ValueError(f"app {app.name!r} already launched")
        store = CheckpointStore(
            base_cost=self.checkpoint_base_cost,
            per_byte_cost=self.checkpoint_per_byte_cost,
            encode_per_byte_cost=self.checkpoint_encode_per_byte_cost,
            deferred=self.checkpoint_deferred,
            metrics=self.controller.telemetry.metrics
            if self.controller.telemetry is not None else None,
        )
        policy = CheckpointPolicy(
            interval=checkpoint_interval or self.checkpoint_interval,
            adaptive=self.checkpoint_adaptive,
            max_tail=self.checkpoint_max_tail,
        )
        stub = AppVisorStub(
            self.sim, app,
            checkpoint_store=store,
            checkpoint_interval=(checkpoint_interval
                                 or self.checkpoint_interval),
            heartbeat_interval=self.heartbeat_interval,
            limits=limits,
            replica_factory=replica_factory,
            telemetry=self.controller.telemetry,
            checkpoint_policy=policy,
        )
        chaos = self.chaos(app.name) if callable(self.chaos) else self.chaos
        channel = UdpChannel(
            self.sim,
            base_delay=self.channel_base_delay,
            per_byte_delay=self.channel_per_byte_delay,
            loss=self.channel_loss,
            seed=self.seed + len(self.stubs),
            batch=self.channel_batch,
            reliable=self.channel_reliable,
            retry_budget=self.channel_retry_budget,
            chaos=chaos,
            telemetry=self.controller.telemetry,
        )
        # Retry-budget exhaustion is a *link* verdict: route it to the
        # detector so Crash-Pad blames the channel, not the app.
        channel.on_fault.append(
            lambda fault, name=app.name:
                self.proxy.note_channel_fault(name, fault))
        self.proxy.attach_stub(stub, channel)
        self.stubs[app.name] = stub
        self.channels[app.name] = channel
        return stub

    def adopt_app(self, stub: AppVisorStub, channel: UdpChannel) -> AppVisorStub:
        """Adopt an already-running stub after a controller failover.

        The app inside the stub keeps its state and checkpoint history;
        only the proxy side is new.  Used by
        :class:`repro.replication.ReplicaSet` when a promoted backup's
        runtime takes over the old primary's apps.
        """
        name = stub.app.name
        if name in self.stubs:
            raise ValueError(f"app {name!r} already hosted here")
        self.proxy.adopt_stub(stub, channel)
        self.stubs[name] = stub
        self.channels[name] = channel
        return stub

    # -- accessors ------------------------------------------------------------

    def app(self, name: str) -> SDNApp:
        """The live app instance (for test/experiment inspection)."""
        return self.stubs[name].app

    def stub(self, name: str) -> AppVisorStub:
        return self.stubs[name]

    def record(self, name: str):
        """The proxy's bookkeeping record for an app."""
        return self.proxy.record(name)

    @property
    def is_up(self) -> bool:
        """Controller liveness -- stays True through app crashes."""
        return not self.controller.crashed

    @property
    def telemetry(self):
        """The deployment's telemetry (tracer/flight recorder/metrics).

        Owned by the controller so that every layer -- dispatch, proxy,
        NetLog, Crash-Pad -- reports into the same trace.
        """
        return self.controller.telemetry

    def live_apps(self) -> List[str]:
        return self.proxy.live_apps()

    @property
    def tickets(self) -> TicketStore:
        return self.crashpad.tickets

    def stats(self) -> Dict[str, Dict[str, int]]:
        return self.proxy.stats()

    def total_crashes(self) -> int:
        return sum(s["crashes"] for s in self.stats().values())

    def total_recoveries(self) -> int:
        return sum(s["recoveries"] for s in self.stats().values())
