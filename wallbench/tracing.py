"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points at each layer
boundary, patched at the name the caller looks up: class attributes
for methods, and every ``repro`` module global bound to a module-level
function.  It must be installed before the stack is built, so bound
methods captured at build time are the wrapped ones.

Each wrapped call made inside a timed slice keeps one span in memory:
(name, wall start, wall end, parent span, slice id, crash id).  A
layer's self time is its spans' durations minus their direct child
spans.  Work done inside private helpers is folded into the nearest
wrapped caller; work with no wrapped caller (the simulator loop, the
switch fabric, the channels' private flush/deliver) is the ``network``
residual.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(owner, attribute)], owner "module:Class" or "module".
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "controller": [
        ("repro.controller.core:Controller", "handle_switch_message"),
        ("repro.controller.core:Controller", "dispatch")],
    "appvisor.proxy": [
        ("repro.core.appvisor.proxy:AppVisorProxy", "controller_event"),
        ("repro.core.appvisor.proxy:AppVisorProxy", "on_frame")],
    "appvisor.channel": [
        ("repro.core.appvisor.channel:ChannelEndpoint", "send")],
    "appvisor.rpc": [("repro.core.appvisor.rpc", "encode_frame"),
                     ("repro.core.appvisor.rpc", "decode_frame")],
    "openflow.serialization": [
        ("repro.openflow.serialization", "encode_value"),
        ("repro.openflow.serialization", "decode_value"),
        ("repro.openflow.serialization", "encode_state_value"),
        ("repro.openflow.serialization", "decode_state_value")],
    "crashpad.checkpoint": [
        ("repro.core.crashpad.checkpoint:CheckpointStore", name)
        for name in ("take", "drain", "flush", "restore")],
    "crashpad.recovery": [
        ("repro.core.crashpad.recovery:CrashPad", "decide"),
        ("repro.core.crashpad.ticket:TicketStore", "create")],
    "netlog": [("repro.core.netlog.transaction:TransactionManager", name)
               for name in ("begin", "apply", "commit", "abort")],
    "replication": [
        ("repro.replication.byzantine:ReplicaKeyring", "stamp"),
        ("repro.replication.byzantine:ReplicaKeyring", "verify")],
    "shard": [("repro.shard.coordinator:ShardCoordinator",
               "owner_controller")],
    "telemetry": [("repro.telemetry.tracer:Tracer", "record_span"),
                  ("repro.telemetry.tracer:Tracer", "to_dicts"),
                  ("repro.telemetry.recorder:FlightRecorder", "record")],
    "apps": [("wallbench.stack:CrashMarkerSwitch", "on_packet_in")],
}

#: Byte counters taken at the codec boundary: span name -> (counter,
#: bytes of the call) -- encoders count their output, decoders input.
_BYTE_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "encode_value": ("bytes_encoded", lambda args, out: len(out)),
    "encode_state_value": ("bytes_encoded", lambda args, out: len(out)),
    "decode_value": ("bytes_decoded", lambda args, out: len(args[0])),
    "decode_state_value": ("bytes_decoded", lambda args, out: len(args[0])),
}

NOTE = ("work inside private helpers is folded into the nearest wrapped "
        "public caller; work with no wrapped caller is the network "
        "residual")


class LayerTracer:
    """Wraps each layer's entry points and records spans in memory."""

    def __init__(self):
        #: Id of the timed slice being run; None = not recording.
        self.slice: Optional[int] = None
        #: Id of the crash whose recovery is pending, if any.
        self.crash: Optional[int] = None
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.spans: List[tuple] = []
        self.bytes = {"bytes_encoded": 0, "bytes_decoded": 0}
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        # Load exactly the modules an untraced run loads (importing more
        # would change the garbage collector's pacing), then patch every
        # loaded module that binds a wrapped function.  The modules the
        # stack imports lazily bind none of them.
        importlib.import_module("wallbench.stack")
        for layer, entries in LAYERS.items():
            for owner, attr in entries:
                self._patch(layer, owner, attr)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, layer: str, owner: str, attr: str) -> None:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, f"{class_name}.{attr}", layer)
            setattr(cls, attr, wrapper)
            self._undo.append(lambda: setattr(cls, attr, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, attr, layer)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if (namespace is None
                    or not getattr(mod, "__name__", "").startswith("repro")):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(
                        lambda ns=namespace, k=key: ns.__setitem__(
                            k, original))

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        counter = _BYTE_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.slice is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.slice,
                              tracer.crash)
            if counter is not None:
                tracer.bytes[counter[0]] += counter[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- analysis ----------------------------------------------------------

    def layer_totals(self, scale: List[float]) -> Dict[str, dict]:
        """Per layer: calls and self seconds, each span's time
        multiplied by its slice's ``scale``."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, (name_id, start, end, _, slice_id, _) in enumerate(
                self.spans):
            row = totals[self.layer_of[name_id]]
            factor = scale[slice_id] / 1e9
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[i]) * factor
        return totals

    def call_seconds(self, name: str, scale: List[float]) -> List[float]:
        """Inclusive duration of every call of one wrapped function,
        multiplied by its slice's ``scale``."""
        return [(end - start) * scale[slice_id] / 1e9
                for name_id, start, end, _, slice_id, _ in self.spans
                if self.names[name_id] == name]

    def spans_outside(self, bounds: List[Tuple[float, float]]) -> int:
        """Top-level spans not inside their slice's timed interval
        (``bounds`` in perf_counter seconds); 0 when accounting holds."""
        bad = 0
        for _, start, end, parent, slice_id, _ in self.spans:
            if parent >= 0:
                continue
            lo, hi = bounds[slice_id]
            if start < lo * 1e9 - 1e3 or end > hi * 1e9 + 1e3:
                bad += 1
        return bad

    def write(self, path) -> None:
        """All spans, one row each (times in ns, relative to the first)."""
        base = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "layer", "start_ns", "end_ns",
                          "parent", "slice", "crash"])
            for i, (name_id, start, end, parent, slice_id,
                    crash) in enumerate(self.spans):
                out.writerow([i, self.names[name_id],
                              self.layer_of[name_id], start - base,
                              end - base, parent, slice_id,
                              "" if crash is None else crash])
