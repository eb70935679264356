"""Model-based test of the checkpoint store.

Random interleavings of state changes, synchronous and deferred takes,
drains, flushes, crash drops, restores and evictions run against a
:class:`CheckpointStore` and, side by side, a plain model: a
``copy.deepcopy`` snapshot per take plus the clean/dirty baseline the
store is supposed to keep.  After every step:

- the store retains exactly the entries the model expects: the newest
  ``keep`` takes, minus dropped pending ones and the future a restore
  abandoned;
- every retained durable entry materialises to its snapshot (and the
  restore steps, plus a final newest-first walk, restore to it);
- ``value_encodes`` has grown by exactly the dirty keys of the takes
  encoded so far;
- ``latest_before`` picks the newest entry among duplicates;
- ``retained_bytes`` is the size of the distinct buffers live entries
  reference.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crashpad.checkpoint import CheckpointStore

KEYS = ("k0", "k1", "k2", "k3")
KEEP = 3


class TrackedApp:
    """Dict state with an SDNApp-style version map: every write bumps
    the key's version (creation included); deletion is key absence."""

    name = "model"

    def __init__(self):
        self.state = {}
        self.versions = {}

    def get_state(self):
        return dict(self.state)

    def set_state(self, state):
        self.state = dict(state)

    def state_versions(self):
        return self.versions

    def write(self, key, value):
        self.state[key] = value
        self.versions[key] = self.versions.get(key, 0) + 1


values = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2),
)
ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(KEYS), values),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(st.just("take"), st.booleans()),
    st.tuples(st.just("drain")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drop")),
    st.tuples(st.just("restore"), st.integers(0, KEEP - 1)),
)


def distinct_bytes(entries):
    buffers = {id(buf): len(buf) for entry in entries if entry.image
               for buf in entry.image.values()}
    return sum(buffers.values())


class Model:
    def __init__(self):
        self.app = TrackedApp()
        self.store = CheckpointStore(keep=KEEP, deferred=True)
        self.snapshots = {}           # id(checkpoint) -> (checkpoint, state)
        self.history = []             # the entries the store should retain
        self.baseline = None          # (versions, keys) of the last take
        self.seq = 1
        self.sync_encodes = 0
        self.deferred = []            # (checkpoint, dirty keys)

    def dirty_keys(self, state):
        if self.baseline is None:
            return len(state)
        versions, keys = self.baseline
        return sum(1 for key in state
                   if key not in keys
                   or self.app.versions.get(key) != versions.get(key))

    def take(self, defer):
        state = self.app.get_state()
        dirty = self.dirty_keys(state)
        deferred = bool(defer and self.baseline is not None
                        and self.store.count)
        captures = self.store.deferred_takes
        checkpoint = self.store.take(self.app, self.seq, float(self.seq),
                                     defer=defer)
        # (An eviction inside the take may already have encoded it.)
        assert self.store.deferred_takes - captures == deferred
        if deferred:
            self.deferred.append((checkpoint, dirty))
        else:
            self.sync_encodes += dirty
        self.snapshots[id(checkpoint)] = (checkpoint, copy.deepcopy(state))
        self.history = (self.history + [checkpoint])[-KEEP:]
        self.baseline = (dict(self.app.versions), frozenset(state))
        self.seq += 1

    def restore(self, index):
        durable = [cp for cp in self.store.history() if not cp.pending]
        target = durable[index % len(durable)]
        self.store.restore(self.app, target)
        assert self.app.get_state() == self.snapshot(target)
        cut = next(i for i, cp in enumerate(self.history) if cp is target)
        self.history = self.history[:cut + 1]
        self.baseline = (dict(self.app.versions),
                         frozenset(self.app.state))
        # Retaking at the restored position creates duplicates.
        self.seq = target.before_seq

    def snapshot(self, checkpoint):
        return self.snapshots[id(checkpoint)][1]

    def apply(self, op):
        kind = op[0]
        if kind == "write":
            self.app.write(op[1], copy.deepcopy(op[2]))
        elif kind == "delete":
            self.app.state.pop(op[1], None)
        elif kind == "take":
            self.take(op[1])
        elif kind == "drain":
            self.store.drain()
        elif kind == "flush":
            self.store.flush()
        elif kind == "drop":
            if self.store.drop_pending():
                self.baseline = None
                self.history = [cp for cp in self.history if not cp.pending]
        elif kind == "restore" and self.store.count:
            self.restore(op[1])

    def check(self):
        store = self.store
        history = store.history()
        assert len(history) == len(self.history)
        assert all(a is b for a, b in zip(history, self.history))
        pending = [cp.pending for cp in history]
        assert pending == sorted(pending), "pending entries form a suffix"
        for checkpoint in history:
            if not checkpoint.pending:
                assert (pickle.loads(store.materialize(checkpoint))
                        == self.snapshot(checkpoint))
        finalised = sum(dirty for cp, dirty in self.deferred
                        if not cp.pending)
        assert store.value_encodes == self.sync_encodes + finalised
        for seq in {cp.before_seq for cp in history}:
            newest = [cp for cp in history if cp.before_seq <= seq][-1]
            assert store.latest_before(seq) is newest
        assert store.retained_bytes == distinct_bytes(history)
        assert store.stats()["retained_bytes"] == store.retained_bytes


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(ops, max_size=40))
def test_store_matches_deepcopy_model(steps):
    model = Model()
    for op in steps:
        model.apply(op)
        model.check()
    # Every retained entry still restores exactly; newest first, since
    # a restore truncates the entries after its target.
    model.store.flush()
    for checkpoint in reversed(model.store.history()):
        replica = TrackedApp()
        model.store.restore(replica, checkpoint)
        assert replica.get_state() == model.snapshot(checkpoint)
