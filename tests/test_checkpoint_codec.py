"""The checkpoint value codec and the double-serialization regression.

Taking a checkpoint used to serialise every state value twice -- once
for a dedup hash, once for the stored image.  The store encodes each
key exactly once per take and shares those buffers between images;
``value_encodes``/``value_decodes`` count codec invocations so the
property is pinned, not assumed.

Each contract runs under both paths of the state-value codec: values
the packed wire codec expresses (``schema``) and values it cannot,
which fall back to pickle per value (``pickle``).
"""

import copy
import pickle

import pytest

from repro.core.crashpad.checkpoint import CheckpointStore
from repro.openflow.serialization import (
    decode_state_value,
    encode_state_value,
)

#: First byte of a state-value buffer for each codec path.
PREFIX = {"schema": b"\x01", "pickle": b"\x00"}


class Opaque:
    """A value the packed codec cannot express (pickle fallback)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value


class DictApp:
    name = "dictapp"

    def __init__(self, codec="schema"):
        self.wrap = Opaque if codec == "pickle" else (lambda value: value)
        self.state = {}
        self.put("macs", {})
        self.put("count", 0)

    def put(self, key, value):
        self.state[key] = self.wrap(value)

    def get_state(self):
        return {k: v for k, v in self.state.items()}

    def set_state(self, state):
        self.state = dict(state)


#: Which state-value path the values take: pickle fallback or the
#: wire codec.
VALUE_PATHS = pytest.mark.parametrize("codec", ["pickle", "schema"])


@VALUE_PATHS
def test_take_encodes_each_key_exactly_once(codec):
    """N takes of a K-key untracked state = N*K encodes, zero decodes
    -- the double-serialization regression pin."""
    app = DictApp(codec)
    store = CheckpointStore()
    keys = len(app.get_state())
    takes = 6
    for seq in range(1, takes + 1):
        app.put("count", seq)             # differs -> never shared whole
        checkpoint = store.take(app, before_seq=seq, now=float(seq))
    assert store.value_encodes == takes * keys
    assert store.value_decodes == 0
    assert {buf[:1] for buf in checkpoint.image.values()} == {PREFIX[codec]}


@VALUE_PATHS
def test_dedup_take_still_encodes_once(codec):
    """An unchanged untracked take must encode (to compare) but write
    nothing -- and still never encode a key twice."""
    app = DictApp(codec)
    store = CheckpointStore()
    keys = len(app.get_state())
    first = store.take(app, before_seq=1, now=1.0)
    written = store.bytes_written
    second = store.take(app, before_seq=2, now=2.0)  # unchanged state
    assert second.image is first.image
    assert store.bytes_written == written
    assert store.value_encodes == 2 * keys
    assert store.value_decodes == 0


@VALUE_PATHS
def test_restore_equivalence_across_codecs(codec):
    """materialize() yields the monolithic pickle contract and
    restore() reinstates the state, whichever codec path the values
    took."""
    app = DictApp(codec)
    store = CheckpointStore()
    snapshots = []
    macs = {}
    for seq in range(1, 8):
        macs = dict(macs, **{f"02:00:00:00:00:{seq:02x}": seq})
        app.put("macs", macs)
        app.put("count", seq)
        store.take(app, before_seq=seq, now=float(seq))
        snapshots.append(copy.deepcopy(app.get_state()))
    for checkpoint, expect in zip(store.history(), snapshots):
        assert pickle.loads(store.materialize(checkpoint)) == expect
    # Restore the oldest, then confirm the app actually holds it.
    store.restore(app, store.history()[0])
    assert app.get_state() == snapshots[0]


def test_state_value_codec_round_trip_and_fallback():
    """encode_state_value prefers the packed codec and falls back to
    pickle for values the wire format cannot express."""
    packable = {"a": [1, 2.5, "x"], "b": (None, True)}
    buf = encode_state_value(packable)
    assert buf[:1] == b"\x01"
    assert decode_state_value(buf) == packable

    unpackable = {"cls": DictApp}      # a class object: not wire-safe
    buf = encode_state_value(unpackable)
    assert buf[:1] == b"\x00"
    assert decode_state_value(buf) == unpackable


def test_stats_reports_codec_and_counts():
    """stats() reports the value-codec invocation counts and the take
    count."""
    app = DictApp()
    store = CheckpointStore()
    store.take(app, before_seq=1, now=1.0)
    stats = store.stats()
    assert stats["value_encodes"] == len(app.get_state())
    assert stats["value_decodes"] == 0
    assert stats["taken"] == 1


def test_eviction_reuses_buffers():
    """Eviction drops the oldest entry and nothing else: no value
    decode, no re-encode, and the survivors still materialise."""
    app = DictApp()
    store = CheckpointStore(keep=2)
    for seq in range(1, 6):
        app.state["count"] = seq
        store.take(app, before_seq=seq, now=float(seq))
    assert store.value_encodes == 5 * len(app.get_state())
    assert store.value_decodes == 0
    head, tail = store.history()
    assert head.image["macs"] is tail.image["macs"]
    assert pickle.loads(store.materialize(head))["count"] == 4
