"""Incremental checkpointing: images that share unchanged buffers.

The contract under test (§4.1 + §5): every checkpoint, however many
buffers it shares with its predecessors, must be *restore-equivalent*
to the full image a non-incremental store would have taken at the same
point -- for every prefix of the history, across unchanged takes, and
across retention evicting the entries it shares buffers with.
"""

import pickle

import pytest

from repro.apps import LearningSwitch
from repro.core.crashpad.checkpoint import CheckpointStore


class DictApp:
    """Minimal app with a dict state and scripted mutations (no
    version tracking: every take encodes every key)."""

    name = "dictapp"

    def __init__(self):
        self.state = {"a": 0, "table": {}}

    def get_state(self):
        return {k: v for k, v in self.state.items()}

    def set_state(self, state):
        self.state = dict(state)


def reference_blob(app):
    """What a non-incremental store would have written."""
    return pickle.dumps(app.get_state(), protocol=pickle.HIGHEST_PROTOCOL)


def drive(app, store, mutations):
    """Apply each mutation then checkpoint; collect (cp, reference)."""
    taken = []
    for seq, mutate in enumerate(mutations, start=1):
        mutate(app.state)
        checkpoint = store.take(app, before_seq=seq, now=float(seq))
        taken.append((checkpoint, reference_blob(app)))
    return taken


MUTATIONS = [
    lambda s: s.__setitem__("a", 1),
    lambda s: s["table"].__setitem__("x", [1, 2]),
    lambda s: None,                       # unchanged -> shared image
    lambda s: s["table"]["x"].append(3),  # nested in-place mutation
    lambda s: s.__setitem__("b", {"n": 0}),
    lambda s: None,                       # unchanged again
    lambda s: s.pop("a"),                 # key removal
    lambda s: s["b"].__setitem__("n", 7),
    lambda s: s.__setitem__("c", "end"),
]


def shared_keys(checkpoint, predecessor):
    return {key for key, buf in checkpoint.image.items()
            if predecessor.image.get(key) is buf}


class TestDeltaChains:
    """Entries that share their predecessor's buffers restore exactly
    like self-contained full images."""

    def test_restore_from_delta_equals_restore_from_full_every_prefix(self):
        app = DictApp()
        store = CheckpointStore(keep=64)
        taken = drive(app, store, MUTATIONS)
        pairs = list(zip(taken, taken[1:]))
        # The history actually mixed partly shared, wholly shared and
        # changed-key images.
        assert any(cur.image is prev.image for (prev, _), (cur, _) in pairs)
        assert any(cur.image is not prev.image and shared_keys(cur, prev)
                   for (prev, _), (cur, _) in pairs)
        for checkpoint, reference in taken:
            assert (pickle.loads(store.materialize(checkpoint))
                    == pickle.loads(reference)), checkpoint.before_seq
        # Restore truncates the abandoned future, so walk newest-first:
        # each target is still retained when its turn comes.
        for checkpoint, reference in reversed(taken):
            replica = DictApp()
            store.restore(replica, checkpoint)
            assert replica.get_state() == pickle.loads(reference)

    def test_restore_opens_a_fresh_chain(self):
        app = DictApp()
        store = CheckpointStore(keep=64)
        taken = drive(app, store, MUTATIONS[:4])
        restored = taken[1][0]
        store.restore(app, restored)
        app.state["post"] = True
        after = store.take(app, before_seq=99, now=9.0)
        # Entries after the restored one describe an abandoned future;
        # the next image shares the *restored* buffers, never theirs.
        assert shared_keys(after, restored) == {"a", "table"}
        assert pickle.loads(store.materialize(after)) == app.get_state()

    def test_non_dict_state_falls_back_to_monolithic_fulls(self):
        class TupleApp:
            name = "tup"

            def __init__(self):
                self.value = (1, 2)

            def get_state(self):
                return self.value

            def set_state(self, state):
                self.value = state

        app = TupleApp()
        store = CheckpointStore()
        first = store.take(app, before_seq=1, now=0.0)
        app.value = (3, 4)
        second = store.take(app, before_seq=2, now=0.0)
        # One opaque entry per image, priced as a full dump every time.
        assert len(first.image) == len(second.image) == 1
        assert store.cost_of(second) == pytest.approx(
            store.base_cost + second.state_size * store.per_byte_cost)
        assert pickle.loads(store.materialize(second)) == (3, 4)
        store.restore(app, first)
        assert app.value == (1, 2)


class TestDedup:
    def test_unchanged_state_costs_only_the_hash(self):
        """An untracked app's unchanged take pays the encode-and-compare
        pass, writes nothing, and shares the predecessor's image."""
        app = DictApp()
        store = CheckpointStore()
        first = store.take(app, before_seq=1, now=0.0)
        written = store.bytes_written
        repeat = store.take(app, before_seq=2, now=0.0)
        assert repeat.image is first.image
        assert store.bytes_written == written
        assert repeat.cost == pytest.approx(
            repeat.state_size * store.encode_per_byte_cost)
        # An untracked app has no version map to call unchanged.
        assert store.dedup_hits == 0
        # The shared entry still restores to the (unchanged) state.
        replica = DictApp()
        store.restore(replica, repeat)
        assert replica.get_state() == app.get_state()


class TestRestoreTruncation:
    def test_dedup_take_after_restore_restores_the_restored_state(self):
        # Regression: take {x:1}, take {x:2}, restore to the first,
        # take the unchanged state.  The new entry must share the
        # *restored* image, not the abandoned one -- restoring from it
        # has to yield {x:1}, never {x:2}.
        app = DictApp()
        store = CheckpointStore(keep=64)
        app.state = {"x": 1}
        first = store.take(app, before_seq=1, now=1.0)
        app.state = {"x": 2}
        store.take(app, before_seq=2, now=2.0)
        store.restore(app, first)
        assert app.get_state() == {"x": 1}
        again = store.take(app, before_seq=3, now=3.0)
        assert again.image is first.image
        replica = DictApp()
        store.restore(replica, again)
        assert replica.get_state() == {"x": 1}

    def test_restore_drops_the_abandoned_future(self):
        app = DictApp()
        store = CheckpointStore(keep=64)
        taken = drive(app, store, MUTATIONS)
        target = taken[2][0]
        store.restore(app, target)
        history = store.history()
        assert history[-1] is target
        assert len(history) == 3
        assert store.latest_before(10 ** 9) is target
        assert store.retained_bytes == distinct_bytes(history)

    def test_latest_before_prefers_the_newest_duplicate(self):
        app = DictApp()
        store = CheckpointStore(keep=64)
        taken = drive(app, store, MUTATIONS[:3])
        store.restore(app, taken[0][0])
        retaken = store.take(app, before_seq=1, now=9.0)
        assert store.latest_before(1) is retaken
        replica = DictApp()
        store.restore(replica, retaken)
        assert replica.get_state() == pickle.loads(taken[0][1])


def distinct_bytes(entries):
    """Bytes of the distinct buffers ``entries`` reference."""
    buffers = {id(buf): len(buf) for entry in entries
               for buf in entry.image.values()}
    return sum(buffers.values())


class TestRetention:
    def test_chain_truncation_past_keep_still_restores(self):
        app = DictApp()
        store = CheckpointStore(keep=3)
        taken = drive(app, store, MUTATIONS)
        survivors = store.history()
        assert len(survivors) == 3
        assert store.evicted_count == len(MUTATIONS) - 3
        # The survivors share buffers with evicted entries; dropping
        # those entries must not have taken the buffers with them.
        references = {id(cp): ref for cp, ref in taken}
        for survivor in survivors:
            assert (pickle.loads(store.materialize(survivor))
                    == pickle.loads(references[id(survivor)]))

    def test_retained_bytes_tracks_live_entries_only(self):
        app = DictApp()
        store = CheckpointStore(keep=3)
        drive(app, store, MUTATIONS)
        live = distinct_bytes(store.history())
        assert store.retained_bytes == live
        assert store.bytes_written >= store.retained_bytes
        assert store.stats()["retained_bytes"] == live
        assert store.stats()["evicted"] == store.evicted_count

    def test_evicted_entries_leave_as_self_contained_images(self):
        # Every image holds all of its buffers, so whatever leaves the
        # store is still materialisable on its own.
        app = DictApp()
        store = CheckpointStore(keep=2)
        taken = drive(app, store, MUTATIONS[:5])
        evicted = taken[1][0]
        assert all(evicted is not cp for cp in store.history())
        assert (pickle.loads(store.materialize(evicted))
                == pickle.loads(taken[1][1]))


class TestCostModel:
    def test_delta_cheaper_than_full_for_large_state(self):
        app = DictApp()
        app.state["bulk"] = list(range(4000))
        store = CheckpointStore()
        full = store.take(app, before_seq=1, now=0.0)
        app.state["a"] = 1  # one small key changes
        delta = store.take(app, before_seq=2, now=0.0)
        assert delta.image["bulk"] is full.image["bulk"]
        assert store.cost_of(delta) < store.cost_of(full) / 3

    def test_tracked_take_costs_its_dirty_keys(self):
        app = LearningSwitch()
        store = CheckpointStore()
        first = store.take(app, before_seq=1, now=0.0)
        assert store.cost_of(first) == pytest.approx(
            store.base_cost + first.state_size * store.per_byte_cost)
        app.flows_installed += 1
        app.mark_dirty("flows_installed")
        written = store.bytes_written
        second = store.take(app, before_seq=2, now=0.0)
        dirty = len(second.image["flows_installed"])
        assert store.bytes_written - written == dirty
        assert store.cost_of(second) == pytest.approx(
            len(second.image) * store.version_check_per_key_cost
            + dirty * (store.encode_per_byte_cost + store.per_byte_cost))

    def test_restore_cost_is_one_image_load(self):
        app = LearningSwitch()
        store = CheckpointStore()
        for seq in range(1, 6):
            app.mac_tables.setdefault(seq, {})[f"m{seq}"] = seq
            app.mark_dirty("mac_tables")
            last = store.take(app, before_seq=seq, now=0.0)
        assert store.restore_cost_of(last) == pytest.approx(
            store.base_cost + last.state_size * store.per_byte_cost)
