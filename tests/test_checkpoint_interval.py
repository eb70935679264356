"""Interval (fuzzy) checkpoints, dirty-key tracking, deferred encoding.

The contracts under test:

- **Equivalence** (the property the whole feature rests on): for every
  crash offset within a checkpoint interval, restoring the last
  durable image and replaying the journal tail reconstructs exactly
  the state that per-event checkpointing would have reconstructed.
- **Durability** (the deferred-encoding hazard): a crash while a
  capture is still pending -- taken but never drained by a heartbeat
  -- must recover from the previous *durable* image, dropping the
  pending capture instead of trusting it.
- The :class:`CheckpointPolicy` cadence/tightening rules and the
  store-level dirty-key bookkeeping those two behaviours rely on.
"""

import pickle

import pytest

from repro.apps import LearningSwitch
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.core.crashpad.interval import CheckpointPolicy
from repro.core.runtime import LegoSDNRuntime
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.workloads.traffic import inject_marker_packet

MARKER = "BOOM"


class CrashMarkerSwitch(LearningSwitch):
    """LearningSwitch (dirty tracking and all) that crashes on MARKER.

    The trigger is stateless, so tail replay cannot re-crash: the
    offending event is dropped and every other event replays clean.
    """

    def on_packet_in(self, event):
        payload = getattr(event.packet, "payload", "") or ""
        if MARKER in payload:
            raise RuntimeError("injected crash marker")
        return super().on_packet_in(event)


def run_workload(interval, crash_offset, probes=10, **runtime_kwargs):
    """Drive a fixed probe stream, crashing after probe ``crash_offset``.

    Returns ``(final_app_state, runtime)``.
    """
    net = Network(linear_topology(3, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller,
                             checkpoint_interval=interval,
                             **runtime_kwargs)
    runtime.launch_app(CrashMarkerSwitch(name="app"))
    net.start()
    net.run_for(1.0)
    for i in range(probes):
        inject_marker_packet(net, "h1", "h3", f"probe-{i}")
        net.run_for(0.4)
        if i == crash_offset:
            inject_marker_packet(net, "h1", "h3", MARKER)
            net.run_for(0.4)
    net.run_for(3.0)
    return runtime.stubs["app"].app.get_state(), runtime


class TestIntervalEquivalence:
    """Restore + tail replay == per-event checkpointing, at every
    crash offset the interval admits."""

    @pytest.mark.parametrize("interval", [4, 8])
    def test_every_crash_offset_matches_per_event_checkpointing(
            self, interval):
        for offset in range(interval):
            reference, ref_runtime = run_workload(1, offset)
            candidate, cand_runtime = run_workload(interval, offset)
            assert candidate == reference, (
                f"state diverged at interval={interval} offset={offset}")
            ref_stats = ref_runtime.stats()["app"]
            cand_stats = cand_runtime.stats()["app"]
            assert cand_stats["crashes"] == ref_stats["crashes"] >= 1
            assert cand_stats["recoveries"] == cand_stats["crashes"]
            assert cand_runtime.is_up

    def test_interval_takes_fewer_checkpoints(self):
        _, per_event = run_workload(1, crash_offset=-1)
        _, fuzzy = run_workload(8, crash_offset=-1)
        taken_per_event = per_event.stubs["app"].checkpoints.stats()["taken"]
        taken_fuzzy = fuzzy.stubs["app"].checkpoints.stats()["taken"]
        assert taken_fuzzy < taken_per_event / 2

    def test_tail_replay_is_bounded_by_the_interval(self):
        _, runtime = run_workload(8, crash_offset=5)
        stub = runtime.stubs["app"]
        assert stub.restores_done >= 1
        # After recovery, lag never exceeds the configured interval.
        assert stub.checkpoints.checkpoint_lag() <= 8


class TestDeferredCrashDurability:
    """Regression: a crash before the heartbeat drains a deferred
    capture recovers from the previous durable image."""

    def test_crash_with_pending_capture_recovers_from_durable_image(self):
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller,
                                 checkpoint_interval=1,
                                 checkpoint_deferred=True)
        runtime.launch_app(CrashMarkerSwitch(name="app"))
        net.start()
        net.run_for(1.0)
        stub = runtime.stubs["app"]
        # Model the race the regression is about: the crash arrives
        # inside the window before the next heartbeat drain runs.
        # (Heartbeats must keep flowing -- the failure detector reads
        # silence as a hang -- so only the drain hook is disabled.)
        stub._drain_checkpoints = lambda: None
        for i in range(4):
            inject_marker_packet(net, "h1", "h3", f"probe-{i}")
            net.run_for(0.4)
        assert stub.checkpoints.stats()["pending"] > 0
        inject_marker_packet(net, "h1", "h3", MARKER)
        net.run_for(3.0)
        stats = runtime.stats()["app"]
        assert stats["crashes"] >= 1
        assert stats["recoveries"] == stats["crashes"]
        # The pending (never-drained) captures died with the process.
        assert stub.checkpoints.stats()["pending_dropped"] > 0
        # ... and the recovered state still matches a run that never
        # deferred anything.
        reference, _ = run_workload(1, crash_offset=3, probes=4,
                                    checkpoint_deferred=False)
        assert stub.app.get_state() == reference

    def test_promotion_flushes_pending_captures(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller,
                                 checkpoint_deferred=True)
        runtime.launch_app(LearningSwitch(name="app"))
        net.start()
        net.run_for(1.0)
        stub = runtime.stubs["app"]
        stub._drain_checkpoints = lambda: None
        for i in range(3):
            inject_marker_packet(net, "h1", "h2", f"p-{i}")
            net.run_for(0.3)
        assert stub.checkpoints.stats()["pending"] > 0
        # Re-attach (what failover promotion does) is a durability
        # point: every pending capture must be encoded first.
        stub.reattach(stub.endpoint)
        assert stub.checkpoints.stats()["pending"] == 0
        assert stub.checkpoints.checkpoint_lag() == 0


class DictApp:
    name = "dictapp"

    def __init__(self):
        self.state = {"a": 0, "b": {}}
        self.versions = {"a": 0, "b": 0}

    def get_state(self):
        return dict(self.state)

    def set_state(self, state):
        self.state = dict(state)
        self.versions = {k: 0 for k in self.state}

    def state_versions(self):
        return dict(self.versions)

    def touch(self, key, value):
        self.state[key] = value
        self.versions[key] = self.versions.get(key, 0) + 1


class TestDirtyKeyStore:
    def test_clean_keys_skip_re_encoding(self):
        app = DictApp()
        store = CheckpointStore()
        first = store.take(app, before_seq=1, now=0.0)
        baseline = store.value_encodes
        app.touch("a", 1)  # "b" untouched
        cp = store.take(app, before_seq=2, now=1.0)
        assert cp.image["b"] is first.image["b"]
        assert cp.image["a"] != first.image["a"]
        assert store.value_encodes == baseline + 1
        assert store.encodes_skipped >= 1

    def test_version_identity_dedups_without_hashing_state(self):
        app = DictApp()
        store = CheckpointStore()
        first = store.take(app, before_seq=1, now=0.0)
        written = store.bytes_written
        encodes = store.value_encodes
        repeat = store.take(app, before_seq=2, now=1.0)
        assert repeat.image is first.image
        assert store.bytes_written == written
        assert store.value_encodes == encodes
        assert store.dedup_hits == 1

    def test_stale_version_baseline_is_conservative(self):
        # drop_pending() invalidates the baseline; the next take must
        # re-encode everything rather than trust stale versions.
        app = DictApp()
        store = CheckpointStore(deferred=True)
        store.take(app, before_seq=1, now=0.0)
        app.touch("a", 1)
        cp = store.take(app, before_seq=2, now=1.0, defer=True)
        assert cp.pending
        assert store.drop_pending() == 1
        app.touch("a", 2)
        after = store.take(app, before_seq=3, now=2.0)
        assert not after.pending
        assert (pickle.loads(store.materialize(after))
                == {"a": 2, "b": {}})

    def test_deferred_roundtrip_through_drain(self):
        app = DictApp()
        store = CheckpointStore(deferred=True)
        store.take(app, before_seq=1, now=0.0)
        references = []
        for seq in range(2, 6):
            app.touch("a", seq)
            cp = store.take(app, before_seq=seq, now=float(seq),
                            defer=True)
            assert cp.pending
            references.append((cp, app.get_state()))
        entries, cost = store.drain()
        assert len(entries) == 4 and cost > 0
        assert store.stats()["pending"] == 0
        for cp, reference in references:
            assert not cp.pending
            assert pickle.loads(store.materialize(cp)) == reference

    def test_flush_is_a_durability_barrier(self):
        app = DictApp()
        store = CheckpointStore(deferred=True)
        store.take(app, before_seq=1, now=0.0)
        app.touch("a", 1)
        store.take(app, before_seq=2, now=1.0, defer=True)
        assert store.latest_durable().before_seq == 1
        store.flush()
        assert store.latest_durable().before_seq == 2
        assert store.checkpoint_lag() == 0


class TestCheckpointPolicy:
    def test_fixed_interval_cadence(self):
        policy = CheckpointPolicy(interval=4)
        assert not policy.due(3, now=0.0)
        assert policy.due(4, now=0.0)

    def test_tail_bound_forces_a_checkpoint(self):
        policy = CheckpointPolicy(interval=1000, max_tail=8)
        assert not policy.due(5, now=0.0, tail_length=7)
        assert policy.due(5, now=0.0, tail_length=8)
        assert policy.tail_forced == 1

    def test_adaptive_tightens_after_a_crash(self):
        policy = CheckpointPolicy(interval=8, adaptive=True,
                                  risk_window=2.0)
        assert policy.effective_interval(0.0) == 8
        policy.note_crash(10.0)
        assert policy.effective_interval(11.0) == 1
        assert policy.effective_interval(13.0) == 8  # window expired

    def test_adaptive_tightens_on_low_health(self):
        score = {"value": 1.0}
        policy = CheckpointPolicy(interval=8, adaptive=True,
                                  health_threshold=0.8)
        policy.attach_health(lambda: score["value"])
        assert policy.effective_interval(0.0) == 8
        score["value"] = 0.5
        assert policy.effective_interval(0.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(interval=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(max_tail=0)
