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

The encoder is compiled per type: a writer, cached by exact type and
built on first use, appends to one ``bytearray``; a dataclass's writer
holds its pre-encoded schema header and field names.  The decoder
walks ``(data, pos)`` offsets through a table of readers indexed by
tag byte.
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import struct
from itertools import chain
from typing import Callable, Dict, List, Tuple, Type

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
_schema_names: List[Tuple[str, ...]] = []
_enum_ids: Dict[str, int] = {}
_enum_classes: List[Type[enum.Enum]] = []

Writer = Callable[[bytearray, object], None]

#: Exact type -> writer, filled on first use of each type.  A type that
#: cannot be written is never cached, and every registration empties
#: the cache, so a class registered late is picked up.
_writers: Dict[type, Writer] = {}


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
        _schema_names.append(tuple(f.name for f in _schema_fields[-1]))
        _writers.clear()
    return cls


def register_enum(cls: Type[enum.Enum]) -> Type[enum.Enum]:
    """Register an enum for wire transport (interns an enum id)."""
    if cls.__name__ not in _enum_ids:
        _enum_ids[cls.__name__] = len(_enum_classes)
        _enum_classes.append(cls)
        _writers.clear()
    return cls


def schema_table() -> Dict[str, int]:
    """The interned schema ids (class name -> id), for diagnostics."""
    return dict(_schema_ids)


# -- encoding ---------------------------------------------------------

_pack_i64 = struct.Struct("!q").pack
#: Tag byte + big-endian float64 / u32 byte count.
_pack_tag_f64 = struct.Struct("!Bd").pack
_pack_tag_u32 = struct.Struct("!BI").pack
#: ``_T_VARINT`` plus the one-byte varint of each int in [-64, 64),
#: indexed by the int itself (negative ints from the end).
_SMALL_INTS = tuple(bytes((_T_VARINT, v * 2 if v >= 0 else -v * 2 - 1))
                    for v in (*range(64), *range(-64, 0)))


def _sorted_members(value):
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


def _write_int(out: bytearray, value: int) -> None:
    if -64 <= value < 64:
        out += _SMALL_INTS[value]
        return
    # Zigzag so small negatives stay small, then LEB128.
    z = value * 2 if value >= 0 else -value * 2 - 1
    if z >> _VARINT_BITS:
        raise SerializationError(f"int too large for a varint: {value}")
    out.append(_T_VARINT)
    while z > 0x7F:
        out.append((z & 0x7F) | 0x80)
        z >>= 7
    out.append(z)


def _varint(v: int) -> bytes:
    """The varint bytes of ``v``: :func:`_write_int` without the tag."""
    out = bytearray()
    _write_int(out, v)
    return bytes(out[1:])


def _write_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out += _pack_tag_u32(_T_STR, len(raw))
    out += raw


def _container_writer(tag: int, count: Callable[[int], bytes],
                      members: Callable = lambda value: value) -> Writer:
    """Writer for tag, ``count(len)``, then each of ``members(value)``."""
    prefix = bytes((tag,))
    writers = _writers

    def write(out: bytearray, value) -> None:
        out += prefix
        out += count(len(value))
        for item in members(value):
            (writers.get(type(item)) or _writer_for(item))(out, item)
    return write


#: Built-in types in precedence order: a type takes the writer of the
#: first entry it subclasses (bool before int, frozenset before set).
_BUILTIN_WRITERS: Tuple[Tuple[type, Writer], ...] = (
    (type(None), lambda out, value: out.append(_T_NONE)),
    (bool, lambda out, value: out.extend((_T_BOOL, 1 if value else 0))),
    (int, _write_int),
    (float, lambda out, value: out.extend(_pack_tag_f64(_T_FLOAT, value))),
    (str, _write_str),
    (bytes, lambda out, value: out.extend(
        _pack_tag_u32(_T_BYTES, len(value)) + value)),
    (list, _container_writer(_T_LIST, _pack_i64)),
    (tuple, _container_writer(_T_TUPLE, _pack_i64)),
    (dict, _container_writer(
        _T_DICT, _varint, lambda value: chain.from_iterable(value.items()))),
    (frozenset, _container_writer(_T_FROZENSET, _varint, _sorted_members)),
    (set, _container_writer(_T_SET, _varint, _sorted_members)),
)


def _enum_writer(cls: type) -> Writer:
    eid = _enum_ids.get(cls.__name__)
    if eid is None:
        raise SerializationError(f"unregistered enum on wire: {cls.__name__}")
    head = bytes((_T_ENUM_ID,)) + _varint(eid)
    return lambda out, value: out.extend(head + _varint(int(value.value)))


def _schema_writer(cls: type) -> Writer:
    sid = _schema_ids.get(cls.__name__)
    if sid is None:
        raise SerializationError(
            f"unregistered dataclass on wire: {cls.__name__}")
    names = _schema_names[sid]
    head = bytes((_T_SCHEMA,)) + _varint(sid) + bytes((len(names),))
    writers = _writers

    def write(out: bytearray, value) -> None:
        out += head
        for name in names:
            item = getattr(value, name)
            (writers.get(type(item)) or _writer_for(item))(out, item)
    return write


def _writer_for(value) -> Writer:
    """Build, cache and return the writer for ``type(value)``."""
    cls = type(value)
    if issubclass(cls, enum.Enum):
        writer = _enum_writer(cls)
    else:
        writer = next((write for base, write in _BUILTIN_WRITERS
                       if issubclass(cls, base)), None)
        if writer is None:
            if not dataclasses.is_dataclass(cls):
                raise SerializationError(f"unserialisable value: {value!r}")
            writer = _schema_writer(cls)
    _writers[cls] = writer
    return writer


# -- decoding ---------------------------------------------------------
# A reader takes the buffer and the offset just past a tag byte and
# returns ``(value, next offset)``.  Reading past the end raises
# IndexError or struct.error, which _decode maps to SerializationError.

_unpack_f64 = struct.Struct("!d").unpack_from
_unpack_u32 = struct.Struct("!I").unpack_from
_unpack_i64 = struct.Struct("!q").unpack_from


def _read_varint(data: bytes, pos: int):
    z = shift = 0
    while True:
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if b < 0x80:
            return (-(z >> 1) - 1 if z & 1 else z >> 1), pos
        shift += 7
        if shift >= _VARINT_BITS:
            raise SerializationError("varint too long")


def _read_i64(data: bytes, pos: int):
    return _unpack_i64(data, pos)[0], pos + 8


def _read_items(data: bytes, pos: int, n: int):
    if n < 0:
        raise SerializationError(f"negative container length: {n}")
    items = []
    readers = _READERS
    for _ in range(n):
        item, pos = readers[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _container_reader(count: Callable, build: Callable, width: int = 1):
    """Reader for a count (read by ``count``), then ``width`` values per
    counted item, all passed as one list to ``build``."""
    def read(data: bytes, pos: int):
        n, pos = count(data, pos)
        items, pos = _read_items(data, pos, n * width)
        return build(items), pos
    return read


def _read_bytes(data: bytes, pos: int):
    end = pos + 4 + _unpack_u32(data, pos)[0]
    if end > len(data):
        raise SerializationError("truncated buffer")
    return data[pos + 4:end], end


def _read_str(data: bytes, pos: int):
    end = pos + 4 + _unpack_u32(data, pos)[0]
    if end > len(data):
        raise SerializationError("truncated buffer")
    return data[pos + 4:end].decode("utf-8"), end


def _read_enum(data: bytes, pos: int):
    eid, pos = _read_varint(data, pos)
    value, pos = _read_varint(data, pos)
    if not 0 <= eid < len(_enum_classes):
        raise SerializationError(f"unknown enum id on wire: {eid}")
    return _enum_classes[eid](value), pos


def _read_schema(data: bytes, pos: int):
    sid, pos = _read_varint(data, pos)
    if not 0 <= sid < len(_schema_classes):
        raise SerializationError(f"unknown schema id on wire: {sid}")
    names = _schema_names[sid]
    n = data[pos]
    pos += 1
    if n > len(names):
        raise SerializationError(
            f"schema {_schema_classes[sid].__name__}: wire has {n} fields, "
            f"decoder knows {len(names)}")
    # Trailing fields absent on the wire take their declared defaults
    # -- adding a defaulted field is a compatible change.  Keywords
    # also reach kw_only fields such as Message.xid.
    values = {}
    readers = _READERS
    for name in names[:n]:
        values[name], pos = readers[data[pos]](data, pos + 1)
    return _schema_classes[sid](**values), pos


def _read_unknown_tag(data: bytes, pos: int):
    raise SerializationError(f"unknown value tag: {data[pos - 1]}")


#: Tag byte -> reader.
_READERS: Tuple[Callable, ...] = tuple({
    _T_NONE: lambda data, pos: (None, pos),
    _T_BOOL: lambda data, pos: (bool(data[pos]), pos + 1),
    _T_FLOAT: lambda data, pos: (_unpack_f64(data, pos)[0], pos + 8),
    _T_STR: _read_str,
    _T_BYTES: _read_bytes,
    _T_LIST: _container_reader(_read_i64, list),
    _T_TUPLE: _container_reader(_read_i64, tuple),
    _T_DICT: _container_reader(
        _read_varint, lambda items: dict(zip(items[::2], items[1::2])), 2),
    _T_SET: _container_reader(_read_varint, set),
    _T_FROZENSET: _container_reader(_read_varint, frozenset),
    _T_SCHEMA: _read_schema,
    _T_ENUM_ID: _read_enum,
    _T_VARINT: _read_varint,
}.get(tag, _read_unknown_tag) for tag in range(256))


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
    """Serialise any supported value (the RPC payload codec).

    A value nested past the interpreter's recursion limit -- a cyclic
    list or dict among them -- raises :class:`SerializationError`.
    """
    out = bytearray()
    try:
        (_writers.get(type(value)) or _writer_for(value))(out, value)
    except RecursionError as exc:
        raise SerializationError(f"value nests too deeply: {exc}") from exc
    return bytes(out)


def decode_value(data: bytes):
    """Parse a value produced by :func:`encode_value`.

    Malformed input raises :class:`SerializationError` and nothing
    else: a truncated buffer, trailing bytes, a negative length, an
    out-of-range enum value, a bad UTF-8 string, an unhashable dict key
    or a field set the class rejects is a bad buffer, not a bug in the
    caller.
    """
    return _decode(data, 0)


def _decode(data: bytes, pos: int):
    try:
        value, pos = _READERS[data[pos]](data, pos + 1)
    except SerializationError:
        raise
    except (IndexError, struct.error, ValueError, TypeError,
            RecursionError) as exc:
        raise SerializationError(f"malformed value: {exc}") from exc
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes")
    return value


# -- checkpoint value codec -------------------------------------------

#: First byte of a checkpoint value buffer: which codec follows.
_B_PACKED = b"\x01"
_B_PICKLE = b"\x00"


def encode_state_value(value) -> bytes:
    """Encode one checkpoint state value to a self-describing buffer.

    Prefers the wire codec (compact, field names interned); values it
    cannot express -- arbitrary app objects, ints past the varint
    bound, cyclic containers -- fall back to pickle.  The one-byte
    prefix records which path was taken so :func:`decode_state_value`
    needs no out-of-band flag.
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
        return _decode(buf, 1)
    return pickle.loads(buf[1:])
