"""Checkpoint/restore of SDN-App state (CRIU substitute).

The paper's prototype CRIU-checkpoints the whole app process before
every message (§4.1).  Our substitute encodes the app's state dict --
a restorable image of its mutable state -- and charges a modelled
sim-time cost, so E7's checkpoint-frequency sweep measures a real
trade-off.

Every checkpoint is an immutable ``{key: encoded buffer}`` **image**.
Consecutive images share the ``bytes`` objects of keys that did not
change, so each entry is self-contained (restore decodes one map;
eviction drops the oldest entry) while a take only pays for what
changed -- §5's "minimizing checkpointing overheads":

- apps that announce mutations (:meth:`~repro.apps.base.SDNApp.
  mark_dirty`) expose a per-key version map: a key whose version has
  not moved reuses the predecessor's buffer unencoded
  (``encodes_skipped``), and a take whose whole version map is
  unchanged shares the predecessor's image and writes nothing
  (``dedup_hits``);
- apps without version tracking encode every key and keep the
  predecessor's buffer wherever the new encoding compares equal;
- a non-dict state is a one-entry image under a private sentinel key.

Values are encoded once per take by :func:`~repro.openflow.
serialization.encode_state_value` (packed codec, pickle fallback per
value).  Restore *truncates*: entries newer than the restored one
describe a future the rollback abandoned.

**Deferred encoding** (``deferred``): with version tracking, ``take()``
only *captures* (clean keys as markers, dirty keys as one-level
shallow copies) a *pending* entry that :meth:`CheckpointStore.drain`
-- the stub heartbeat -- encodes later, off the event path.  A crash
drops pending entries (:meth:`CheckpointStore.drop_pending`) and
recovery replays a longer NetLog tail; restore, failover promotion and
eviction flush them first.  Captured values must be at most one level
of mutable container whose elements are replaced, never mutated.

Cost model (sim seconds): a store's first image, a non-dict state and
a restore cost ``base_cost + bytes * per_byte_cost`` (CRIU's freeze
plus dump); a later image costs a per-key version compare (tracked
apps), ``encode_per_byte_cost`` per encoded byte and ``per_byte_cost``
per newly written byte.

A checkpoint taken *before* event ``seq`` is keyed by ``before_seq``:
it captures the state produced by events ``1 .. seq-1``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.openflow.serialization import (
    decode_state_value,
    encode_state_value,
)

#: Capture marker: this key's value is the predecessor's.
_SAME = object()
#: Image key under which a non-dict state is stored whole.
_WHOLE = object()


class CheckpointError(RuntimeError):
    """State could not be snapshotted or restored."""


def _shallow_copy(value):
    """One-level copy of a captured state value: deep enough for the
    capture contract, cheap enough for the event critical path."""
    for kind in (dict, list, set):
        if isinstance(value, kind):
            return kind(value)
    return value


@dataclass
class Checkpoint:
    """One snapshot of an app's state.

    ``image`` maps each state key to its encoded buffer; buffers (and,
    for an unchanged state, the whole map) are shared with the
    predecessor, never mutated.  A **pending** entry holds only its
    ``capture`` (``_SAME`` markers and shallow copies) until
    :meth:`CheckpointStore.drain` encodes it; a crash drops it.
    """

    before_seq: int
    taken_at: float
    image: Optional[Dict[object, bytes]] = field(default=None, repr=False)
    #: Total size of the image's buffers (what a full dump would cost).
    state_size: int = 0
    #: Modelled sim-time cost charged on the event path (for deferred
    #: takes: the capture only; the encode is background work).
    cost: float = 0.0
    capture: Optional[dict] = field(default=None, repr=False)

    @property
    def pending(self) -> bool:
        """True until the entry is encoded (it has no image yet)."""
        return self.image is None


class CheckpointStore:
    """Holds recent checkpoints for one app, with a cost model.

    ``base_cost`` models CRIU's fixed freeze/dump overhead and
    ``per_byte_cost`` the per-byte write; ``encode_per_byte_cost`` is
    the userspace encode and ``version_check_per_key_cost`` the per-key
    version compare.  Deferred takes charge ``capture_base_cost`` +
    ``capture_per_key_cost`` per dirty key on the event path.  All
    costs are in simulated seconds.  ``keep`` bounds retention (§5's
    "a history of snapshots").  ``metrics`` (optional
    :class:`~repro.metrics.collector.MetricsCollector`) mirrors
    take/byte counters into the Prometheus exposition.
    """

    def __init__(self, keep: int = 16, base_cost: float = 0.010,
                 per_byte_cost: float = 1e-7,
                 encode_per_byte_cost: float = 5e-9,
                 deferred: bool = False,
                 capture_base_cost: float = 2e-5,
                 capture_per_key_cost: float = 1e-6,
                 version_check_per_key_cost: float = 5e-8,
                 metrics=None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self.base_cost = base_cost
        self.per_byte_cost = per_byte_cost
        self.encode_per_byte_cost = encode_per_byte_cost
        #: Defer encoding to :meth:`drain` (needs version tracking on
        #: the app; falls back to synchronous takes without it).
        self.deferred = deferred
        self.capture_base_cost = capture_base_cost
        self.capture_per_key_cost = capture_per_key_cost
        self.version_check_per_key_cost = version_check_per_key_cost
        self.metrics = metrics
        self._checkpoints: List[Checkpoint] = []
        #: Pending entries, FIFO -- always a suffix of ``_checkpoints``.
        self._pending: List[Checkpoint] = []
        #: Image of the newest *finalised* state (take, drain, restore):
        #: the buffers the next image shares.
        self._image: Optional[Dict[object, bytes]] = None
        #: Version map + key set of the newest *take* (pending
        #: included): the clean/dirty baseline for the next one.
        self._versions: Optional[Dict[object, int]] = None
        self._keys: Optional[frozenset] = None
        #: Newest event seq the stub reported (:meth:`note_seq`).
        self._last_seq = 0
        self.taken_count = 0
        self.restored_count = 0
        #: Takes whose version map had not moved (they share the
        #: predecessor's image and write nothing).
        self.dedup_hits = 0
        self.evicted_count = 0
        self.bytes_written = 0
        self.total_cost = 0.0
        #: One encode per *dirty* key per take (every key for untracked
        #: apps); ``encodes_skipped`` counts the clean keys.
        self.value_encodes = 0
        self.value_decodes = 0
        self.encodes_skipped = 0
        self.deferred_takes = 0
        self.deferred_drains = 0
        self.deferred_cost = 0.0
        self.pending_dropped = 0

    @staticmethod
    def _versions_of(app) -> Optional[Dict[object, int]]:
        """The app's live version map, or None (untracked app)."""
        source = getattr(app, "state_versions", None)
        return source() if callable(source) else None

    def _build(self, items: Iterable[Tuple[object, object]],
               ) -> Tuple[Dict[object, bytes], int, int, int]:
        """Encode ``(key, value | _SAME)`` pairs into the next image,
        sharing the predecessor's buffers.  Returns the image, its
        size, the bytes encoded, and the bytes newly written."""
        prev = self._image or {}
        image: Dict[object, bytes] = {}
        encoded = written = 0
        for key, value in items:
            if value is _SAME:
                image[key] = prev[key]
                self.encodes_skipped += 1
                continue
            self.value_encodes += 1
            buf = encode_state_value(value)
            encoded += len(buf)
            old = prev.get(key)
            if buf == old:
                buf = old
            else:
                written += len(buf)
            image[key] = buf
        if not written and len(image) == len(prev):
            image = prev  # nothing moved: share the whole map
        self._image = image
        self.bytes_written += written
        if self.metrics is not None and written:
            self.metrics.inc("checkpoint.bytes_written", written)
        return image, sum(map(len, image.values())), encoded, written

    def note_seq(self, seq: int) -> None:
        """The stub reports every event seq it sees, so checkpoint lag
        (events since the last durable image) is computable here."""
        if seq > self._last_seq:
            self._last_seq = seq

    def take(self, app, before_seq: int, now: float,
             defer: Optional[bool] = None) -> Checkpoint:
        """Snapshot ``app`` prior to event ``before_seq``.

        Its modelled (event-path) cost is :meth:`cost_of`.  ``defer``
        overrides :attr:`deferred` for this take (the stub forces
        synchronous takes when it needs an exact image size).
        """
        self.note_seq(before_seq)
        try:
            state = app.get_state()
            versions = (self._versions_of(app)
                        if isinstance(state, dict) else None)
        except Exception as exc:
            raise CheckpointError(f"cannot snapshot {app.name}: {exc}") from exc
        defer = self.deferred if defer is None else defer
        if (defer and versions is not None and self._checkpoints
                and self._versions is not None):
            checkpoint = self._capture(before_seq, now, state, versions)
        else:
            self.flush()
            checkpoint = self._take_now(before_seq, now, state, versions)
        self.taken_count += 1
        self.total_cost += checkpoint.cost
        if self.metrics is not None:
            self.metrics.inc("checkpoint.taken")
        return checkpoint

    def _is_clean(self, key, versions: Dict[object, int]) -> bool:
        return (key in self._keys
                and versions.get(key) == self._versions.get(key))

    def _note_baseline(self, state, versions) -> None:
        """Make this take's version map + key set the next baseline,
        counting a dedup hit when neither moved."""
        if versions is None:
            self._versions = self._keys = None
            return
        if versions == self._versions and self._keys == state.keys():
            self.dedup_hits += 1
        self._versions = dict(versions)
        self._keys = frozenset(state)

    def _take_now(self, before_seq: int, now: float, state,
                  versions: Optional[Dict[object, int]]) -> Checkpoint:
        if not isinstance(state, dict):
            items: Iterable = ((_WHOLE, state),)
        elif versions is None or self._versions is None:
            items = state.items()
        else:
            items = ((key, _SAME if self._is_clean(key, versions) else value)
                     for key, value in state.items())
        image, size, encoded, written = self._build(items)
        if not self._checkpoints or not isinstance(state, dict):
            cost = self.base_cost + size * self.per_byte_cost
        else:
            cost = (encoded * self.encode_per_byte_cost
                    + written * self.per_byte_cost)
            if versions is not None:
                cost += len(state) * self.version_check_per_key_cost
        self._note_baseline(state, versions)
        return self._append(Checkpoint(
            before_seq=before_seq, taken_at=now, image=image,
            state_size=size, cost=cost))

    def _capture(self, before_seq: int, now: float, state: dict,
                 versions: Dict[object, int]) -> Checkpoint:
        """Capture now, encode later (:meth:`drain`): clean keys become
        ``_SAME`` markers, dirty keys shallow copies that later in-place
        mutations by the app cannot reach."""
        capture = {key: _SAME if self._is_clean(key, versions)
                   else _shallow_copy(value) for key, value in state.items()}
        dirty = sum(1 for value in capture.values() if value is not _SAME)
        cost = (self.capture_base_cost
                + dirty * self.capture_per_key_cost
                + len(state) * self.version_check_per_key_cost)
        self.deferred_takes += 1
        self._note_baseline(state, versions)
        return self._append(Checkpoint(
            before_seq=before_seq, taken_at=now, cost=cost,
            capture=capture))

    def _finalize(self, entry: Checkpoint) -> float:
        """Encode one pending entry; returns its background cost."""
        image, size, encoded, written = self._build(entry.capture.items())
        cost = (encoded * self.encode_per_byte_cost
                + written * self.per_byte_cost)
        entry.image, entry.state_size = image, size
        entry.capture = None
        self.total_cost += cost
        self.deferred_cost += cost
        self.deferred_drains += 1
        return cost

    def drain(self, budget: Optional[int] = None,
              ) -> Tuple[List[Checkpoint], float]:
        """Finalise up to ``budget`` pending entries (all, by default),
        oldest first.  Returns the finalised entries and their total
        modelled background cost -- the ``crashpad.encode`` span."""
        finalized: List[Checkpoint] = []
        cost = 0.0
        while self._pending and (budget is None or len(finalized) < budget):
            entry = self._pending.pop(0)
            cost += self._finalize(entry)
            finalized.append(entry)
        return finalized, cost

    def flush(self) -> float:
        """Force every pending entry durable now (restore, failover
        promotion, eviction, or any consumer that needs the image)."""
        _, cost = self.drain()
        return cost

    def drop_pending(self) -> int:
        """Crash semantics: deferred captures that never drained die
        with the process.  Recovery then starts from the newest
        *durable* entry and replays the correspondingly longer NetLog
        tail.  Returns how many entries were dropped."""
        if not self._pending:
            return 0
        dropped = len(self._pending)
        del self._checkpoints[-dropped:]
        self._pending.clear()
        self.pending_dropped += dropped
        # The clean/dirty baseline described a dropped take; the next
        # take must not skip against it.
        self._versions = self._keys = None
        if self.metrics is not None:
            self.metrics.inc("checkpoint.pending_dropped", dropped)
        return dropped

    def _append(self, checkpoint: Checkpoint) -> Checkpoint:
        if checkpoint.pending:
            self._pending.append(checkpoint)
        self._checkpoints.append(checkpoint)
        excess = len(self._checkpoints) - self.keep
        if excess > 0:
            # A durability point: an entry never leaves unencoded, since
            # its successors' markers resolve against its buffers.
            self.flush()
            del self._checkpoints[:excess]
            self.evicted_count += excess
        return checkpoint

    def cost_of(self, checkpoint: Checkpoint) -> float:
        """Simulated seconds this checkpoint cost to take (the event-
        path share; a deferred take's encode cost is background)."""
        return checkpoint.cost

    def restore_cost_of(self, checkpoint: Checkpoint) -> float:
        """Simulated seconds a restore from ``checkpoint`` costs: one
        image load."""
        return self.base_cost + checkpoint.state_size * self.per_byte_cost

    def latest_before(self, seq: int) -> Optional[Checkpoint]:
        """Newest checkpoint with ``before_seq`` <= ``seq``.

        ``before_seq`` is monotonic in the store (restore truncates a
        suffix), so among duplicates the reverse scan picks the newest
        -- the one the current timeline actually produced.
        """
        for entry in reversed(self._checkpoints):
            if entry.before_seq <= seq:
                return entry
        return None

    def latest_durable(self) -> Optional[Checkpoint]:
        """Newest entry whose image exists (pending entries do not)."""
        for entry in reversed(self._checkpoints):
            if not entry.pending:
                return entry
        return None

    def _load(self, checkpoint: Checkpoint):
        """Decode ``checkpoint``'s image back into the app state."""
        if checkpoint.pending:
            self.flush()
        image = checkpoint.image
        if image is None:  # a dropped pending entry
            raise CheckpointError(f"checkpoint before_seq="
                                  f"{checkpoint.before_seq} was dropped")
        self.value_decodes += len(image)
        try:
            if _WHOLE in image:
                return decode_state_value(image[_WHOLE])
            return {key: decode_state_value(buf)
                    for key, buf in image.items()}
        except Exception as exc:
            raise CheckpointError(
                f"corrupt checkpoint at before_seq="
                f"{checkpoint.before_seq}: {exc}") from exc

    def materialize(self, checkpoint: Checkpoint) -> bytes:
        """The full pickled state at ``checkpoint`` (what a monolithic
        image taken at the same point would hold)."""
        return pickle.dumps(self._load(checkpoint),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, app, checkpoint: Checkpoint) -> None:
        """Load ``checkpoint`` into ``app`` (the CRIU restore).

        Entries newer than the restored one describe a future the
        rollback abandoned and are dropped, so a later
        :meth:`latest_before` cannot resurrect it.  Pending entries are
        flushed first (crash recovery has already dropped them).
        """
        self.flush()
        state = self._load(checkpoint)
        app.set_state(state)
        self.restored_count += 1
        self._truncate_after(checkpoint)
        # The next take shares the *restored* buffers.  The version map
        # survives set_state, so pairing it with them now absorbs any
        # bump by the handler that crashed; replay bumps every key it
        # touches, forcing their re-encode.
        self._image = checkpoint.image
        self._versions = self._keys = None
        self._note_baseline(state, self._versions_of(app)
                            if isinstance(state, dict) else None)

    def _truncate_after(self, checkpoint: Checkpoint) -> None:
        """Drop every entry newer than ``checkpoint`` (the abandoned
        future)."""
        for idx, entry in enumerate(self._checkpoints):
            if entry is checkpoint:
                del self._checkpoints[idx + 1:]
                return
        # An evicted target: everything retained that post-dates it is
        # abandoned (before_seq is monotonic, so this is a suffix).
        self._checkpoints = [entry for entry in self._checkpoints
                             if entry.before_seq <= checkpoint.before_seq]

    @property
    def count(self) -> int:
        return len(self._checkpoints)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def retained_bytes(self) -> int:
        """Bytes of the distinct buffers live entries reference."""
        sizes = {id(buf): len(buf)
                 for entry in self._checkpoints if entry.image
                 for buf in entry.image.values()}
        return sum(sizes.values())

    def latest(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    def oldest(self) -> Optional[Checkpoint]:
        return self._checkpoints[0] if self._checkpoints else None

    def history(self) -> List[Checkpoint]:
        """All retained checkpoints, oldest first (§5: "a history of
        snapshots" for multi-event failure recovery)."""
        return list(self._checkpoints)

    def checkpoint_lag(self) -> int:
        """Events since the last *durable* image -- the NetLog tail a
        crash right now would have to replay."""
        durable = self.latest_durable()
        return max(0, self._last_seq - (durable.before_seq if durable else 0))

    def stats(self) -> Dict[str, object]:
        """Counters for experiment reporting (E7's cost columns)."""
        return {
            "taken": self.taken_count,
            "dedup_hits": self.dedup_hits,
            "evicted": self.evicted_count,
            "retained_bytes": self.retained_bytes,
            "bytes_written": self.bytes_written,
            "total_cost": self.total_cost,
            "value_encodes": self.value_encodes,
            "value_decodes": self.value_decodes,
            "encodes_skipped": self.encodes_skipped,
            "pending": len(self._pending),
            "pending_dropped": self.pending_dropped,
            "deferred_takes": self.deferred_takes,
            "deferred_drains": self.deferred_drains,
            "deferred_cost": self.deferred_cost,
            "checkpoint_lag": self.checkpoint_lag(),
        }
