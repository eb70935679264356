"""Byte-level wire format for values crossing the AppVisor boundary.

The AppVisor proxy and stub live in different fault domains and talk
over a (simulated) UDP channel, so every message crossing the boundary
is serialised to bytes and parsed back (§3.1: "serialization and
de-serialization of messages ... introduce additional latency into the
control-loop").  This module provides that codec.  OpenFlow messages
reach the wire inside RPC frames (:mod:`repro.core.appvisor.rpc`),
encoded like any other value by :func:`encode_value`.  Encoding real
bytes matters because the E2 latency experiment charges the RPC
channel per encoded byte.

A value is a tag byte followed by a type-specific payload.  Lists,
tuples, dicts, sets, enums and registered dataclasses (Match, every
Action, packet classes, stats entries, messages, RPC frames) nest
recursively.  Class and enum names are interned once at registration
into small integer *schema ids*, so a dataclass travels as
``schema_id + field count + values``, in declaration order on both
sides, and ints are zigzag LEB128 varints of at most
``_VARINT_MAX_BYTES`` bytes.  Decoding tolerates *trailing* missing
fields (they take their dataclass defaults), so adding a defaulted
field keeps old captures readable.
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import struct
from typing import Dict, List, Tuple, Type

from repro.openflow import actions as _actions
from repro.openflow import messages as _messages
from repro.openflow.match import Match

# -- value tags -------------------------------------------------------

# Tags 2, 8 and 9 belonged to a retired field-named format; they are
# not reused, so an old capture fails loudly instead of misparsing.
_T_NONE = 0
_T_BOOL = 1
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_LIST = 6
_T_TUPLE = 7
_T_DICT = 10
_T_SET = 11
_T_FROZENSET = 12
#: Dataclass: varint schema id + u8 field count + values in
#: declaration order (no field names on the wire).
_T_SCHEMA = 13
#: Enum: varint enum id + varint member value.
_T_ENUM_ID = 14
#: Zigzag LEB128 integer (1 byte for small ints).
_T_VARINT = 15

#: Longest varint either side accepts: 11 bytes carry 77 bits of
#: zigzag payload, so ints in [-2**76, 2**76).  The writer refuses
#: larger ints rather than emit bytes the reader would reject.
_VARINT_MAX_BYTES = 11
_VARINT_BITS = 7 * _VARINT_MAX_BYTES

#: Schema interning: class name -> small integer id, assigned in
#: registration order (import order is identical on both ends of the
#: simulated wire, so ids agree without a handshake).
_schema_ids: Dict[str, int] = {}
_schema_classes: List[type] = []
_schema_fields: List[Tuple[dataclasses.Field, ...]] = []
_enum_ids: Dict[str, int] = {}
_enum_classes: List[Type[enum.Enum]] = []


class SerializationError(ValueError):
    """Raised when a value or buffer cannot be (de)serialised."""


def register_dataclass(cls: type) -> type:
    """Register a dataclass so it can cross the RPC boundary.

    Used by the packet model and any custom app payloads.  Returns the
    class so it can be used as a decorator.  Registration interns the
    class into the schema table; the first class registered under a
    name keeps its id.
    """
    if not dataclasses.is_dataclass(cls):
        raise SerializationError(f"{cls.__name__} is not a dataclass")
    if cls.__name__ not in _schema_ids:
        _schema_ids[cls.__name__] = len(_schema_classes)
        _schema_classes.append(cls)
        _schema_fields.append(tuple(dataclasses.fields(cls)))
    return cls


def register_enum(cls: Type[enum.Enum]) -> Type[enum.Enum]:
    """Register an enum for wire transport (interns an enum id)."""
    if cls.__name__ not in _enum_ids:
        _enum_ids[cls.__name__] = len(_enum_classes)
        _enum_classes.append(cls)
    return cls


def schema_table() -> Dict[str, int]:
    """The interned schema ids (class name -> id), for diagnostics."""
    return dict(_schema_ids)


class _Writer:
    """Append-only binary buffer."""

    def __init__(self):
        self._chunks = []

    def u8(self, v: int):
        self._chunks.append(struct.pack("!B", v))

    def i64(self, v: int):
        self._chunks.append(struct.pack("!q", v))

    def f64(self, v: float):
        self._chunks.append(struct.pack("!d", v))

    def varint(self, v: int):
        # Zigzag so small negatives stay small, then LEB128.
        z = v * 2 if v >= 0 else -v * 2 - 1
        if z >> _VARINT_BITS:
            raise SerializationError(f"int too large for a varint: {v}")
        out = bytearray()
        while z > 0x7F:
            out.append((z & 0x7F) | 0x80)
            z >>= 7
        out.append(z)
        self._chunks.append(bytes(out))

    def raw(self, b: bytes):
        self._chunks.append(struct.pack("!I", len(b)))
        self._chunks.append(b)

    def string(self, s: str):
        self.raw(s.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    """Sequential binary reader over a buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SerializationError("truncated buffer")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("!B", self._take(1))[0]

    def i64(self) -> int:
        return struct.unpack("!q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("!d", self._take(8))[0]

    def varint(self) -> int:
        z = 0
        shift = 0
        while True:
            b = self._take(1)[0]
            z |= (b & 0x7F) << shift
            if not b & 0x80:
                return z >> 1 if z % 2 == 0 else -(z >> 1) - 1
            shift += 7
            if shift >= _VARINT_BITS:
                raise SerializationError("varint too long")

    def raw(self) -> bytes:
        (n,) = struct.unpack("!I", self._take(4))
        return self._take(n)

    def string(self) -> str:
        return self.raw().decode("utf-8")


def _sorted_members(value):
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


def _write_value(w: _Writer, value) -> None:
    if value is None:
        w.u8(_T_NONE)
    elif isinstance(value, bool):
        w.u8(_T_BOOL)
        w.u8(1 if value else 0)
    elif isinstance(value, enum.Enum):
        name = type(value).__name__
        if name not in _enum_ids:
            raise SerializationError(f"unregistered enum on wire: {name}")
        w.u8(_T_ENUM_ID)
        w.varint(_enum_ids[name])
        w.varint(int(value.value))
    elif isinstance(value, int):
        w.u8(_T_VARINT)
        w.varint(value)
    elif isinstance(value, float):
        w.u8(_T_FLOAT)
        w.f64(value)
    elif isinstance(value, str):
        w.u8(_T_STR)
        w.string(value)
    elif isinstance(value, bytes):
        w.u8(_T_BYTES)
        w.raw(value)
    elif isinstance(value, list):
        w.u8(_T_LIST)
        w.i64(len(value))
        for item in value:
            _write_value(w, item)
    elif isinstance(value, tuple):
        w.u8(_T_TUPLE)
        w.i64(len(value))
        for item in value:
            _write_value(w, item)
    elif isinstance(value, dict):
        w.u8(_T_DICT)
        w.varint(len(value))
        for k, v in value.items():
            _write_value(w, k)
            _write_value(w, v)
    elif isinstance(value, frozenset):
        w.u8(_T_FROZENSET)
        w.varint(len(value))
        for item in _sorted_members(value):
            _write_value(w, item)
    elif isinstance(value, set):
        w.u8(_T_SET)
        w.varint(len(value))
        for item in _sorted_members(value):
            _write_value(w, item)
    elif dataclasses.is_dataclass(value):
        name = type(value).__name__
        if name not in _schema_ids:
            raise SerializationError(f"unregistered dataclass on wire: {name}")
        sid = _schema_ids[name]
        w.u8(_T_SCHEMA)
        w.varint(sid)
        flds = _schema_fields[sid]
        w.u8(len(flds))
        for f in flds:
            _write_value(w, getattr(value, f.name))
    else:
        raise SerializationError(f"unserialisable value: {value!r}")


def _read_value(r: _Reader):
    tag = r.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        return bool(r.u8())
    if tag == _T_ENUM_ID:
        eid = r.varint()
        value = r.varint()
        if not 0 <= eid < len(_enum_classes):
            raise SerializationError(f"unknown enum id on wire: {eid}")
        return _enum_classes[eid](value)
    if tag == _T_VARINT:
        return r.varint()
    if tag == _T_FLOAT:
        return r.f64()
    if tag == _T_STR:
        return r.string()
    if tag == _T_BYTES:
        return r.raw()
    if tag == _T_LIST:
        return [_read_value(r) for _ in range(r.i64())]
    if tag == _T_TUPLE:
        return tuple(_read_value(r) for _ in range(r.i64()))
    if tag == _T_DICT:
        n = r.varint()
        out = {}
        for _ in range(n):
            k = _read_value(r)
            out[k] = _read_value(r)
        return out
    if tag == _T_SET:
        return {_read_value(r) for _ in range(r.varint())}
    if tag == _T_FROZENSET:
        return frozenset(_read_value(r) for _ in range(r.varint()))
    if tag == _T_SCHEMA:
        sid = r.varint()
        if not 0 <= sid < len(_schema_classes):
            raise SerializationError(f"unknown schema id on wire: {sid}")
        cls = _schema_classes[sid]
        flds = _schema_fields[sid]
        n = r.u8()
        if n > len(flds):
            raise SerializationError(
                f"schema {cls.__name__}: wire has {n} fields, "
                f"decoder knows {len(flds)}")
        # Trailing fields absent on the wire take their declared
        # defaults -- adding a defaulted field is a compatible change.
        values = {flds[i].name: _read_value(r) for i in range(n)}
        return cls(**values)
    raise SerializationError(f"unknown value tag: {tag}")


# -- protocol registrations --------------------------------------------

#: Every OpenFlow message class.  Registration order fixes the schema
#: ids, so this list only ever grows at the end.
_MESSAGE_TYPES = (
    _messages.Hello,
    _messages.EchoRequest,
    _messages.EchoReply,
    _messages.ErrorMsg,
    _messages.FlowMod,
    _messages.PacketOut,
    _messages.BarrierRequest,
    _messages.BarrierReply,
    _messages.FlowStatsRequest,
    _messages.FlowStatsReply,
    _messages.PortStatsRequest,
    _messages.PortStatsReply,
    _messages.PacketIn,
    _messages.FlowRemoved,
    _messages.PortStatus,
)

# Register the protocol's own dataclasses and enums.
register_dataclass(Match)
register_dataclass(_messages.FlowStatsEntry)
register_dataclass(_messages.PortStatsEntry)
# Messages ride inside RPC frame payloads (see repro.core.appvisor.rpc).
for _msg_cls in _MESSAGE_TYPES:
    register_dataclass(_msg_cls)
for _action_cls in (
    _actions.Output,
    _actions.Flood,
    _actions.ToController,
    _actions.Drop,
    _actions.Enqueue,
    _actions.SetEthSrc,
    _actions.SetEthDst,
    _actions.SetIpSrc,
    _actions.SetIpDst,
):
    register_dataclass(_action_cls)
for _enum_cls in (
    _messages.FlowModCommand,
    _messages.FlowRemovedReason,
    _messages.PacketInReason,
    _messages.PortStatusReason,
):
    register_enum(_enum_cls)


def encode_value(value) -> bytes:
    """Serialise any supported value (the RPC payload codec)."""
    w = _Writer()
    _write_value(w, value)
    return w.getvalue()


def decode_value(data: bytes):
    """Parse a value produced by :func:`encode_value`.

    Malformed input raises :class:`SerializationError` and nothing
    else: an out-of-range enum value, a bad UTF-8 string, an
    unhashable dict key or a field set the class rejects is a bad
    buffer, not a bug in the caller.
    """
    try:
        return _read_value(_Reader(data))
    except SerializationError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        raise SerializationError(f"malformed value: {exc}") from exc


# -- checkpoint value codec -------------------------------------------

#: First byte of a checkpoint value buffer: which codec follows.
_B_PACKED = b"\x01"
_B_PICKLE = b"\x00"


def encode_state_value(value) -> bytes:
    """Encode one checkpoint state value to a self-describing buffer.

    Prefers the wire codec (compact, field names interned); values it
    cannot express -- arbitrary app objects, ints past the varint
    bound -- fall back to pickle.  The one-byte prefix records which
    path was taken so :func:`decode_state_value` needs no out-of-band
    flag.
    """
    try:
        return _B_PACKED + encode_value(value)
    except (SerializationError, ValueError, TypeError):
        return _B_PICKLE + pickle.dumps(value)


def decode_state_value(buf: bytes):
    """Inverse of :func:`encode_state_value`."""
    if not buf:
        raise SerializationError("empty state-value buffer")
    if buf[:1] == _B_PACKED:
        return decode_value(buf[1:])
    return pickle.loads(buf[1:])
