"""Stage 3 of the monitoring pipeline: transmission (§5.3.3).

The paper's position: keep monitored data "in text form because of platform
independency and the human-readable nature of the data", and recover the
size penalty with compression, "known to be very effective on text input".

:class:`TextCodec` implements exactly that (one ``name value`` line per
metric, zlib-compressed on the wire); :class:`BinaryCodec` is the
comparison point E7 needs — a struct-packed binary encoding that trades
readability for size.  :class:`Transmitter` wraps a codec and a fabric and
keeps the byte ledger.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Mapping, Optional, Tuple

from repro.hardware.node import SimulatedNode
from repro.monitoring.records import Update
from repro.network.fabric import NetworkFabric
from repro.sim import Event

__all__ = ["TextCodec", "BinaryCodec", "Transmitter"]


class TextCodec:
    """Human-readable lines, optionally zlib-compressed."""

    name = "text"
    #: zlib compression level.
    level = 6

    def __init__(self, compress: bool = True):
        self.compress = compress

    def encode(self, hostname: str, t: float,
               values: Dict[str, object]) -> bytes:
        return self.encode_counted(hostname, t, values)[0]

    def encode_counted(self, hostname: str, t: float,
                       values: Dict[str, object]) -> Tuple[bytes, int]:
        """``(frame, uncompressed size)``: the one place a text frame is
        formatted (the size is the E7 'text, no compression' row)."""
        lines = [f"@ {hostname} {t:.3f}"]
        for name in sorted(values):
            lines.append(f"{name} {values[name]}")
        raw = ("\n".join(lines) + "\n").encode("utf-8")
        if self.compress:
            return zlib.compress(raw, self.level), len(raw)
        return raw, len(raw)

    def decode(self, payload: bytes
               ) -> Tuple[str, float, Dict[str, object]]:
        if self.compress:
            payload = zlib.decompress(payload)
        lines = payload.decode("utf-8").splitlines()
        if not lines or not lines[0].startswith("@ "):
            raise ValueError("bad monitoring frame header")
        _, hostname, t_s = lines[0].split()
        values: Dict[str, object] = {}
        for line in lines[1:]:
            name, _, raw_value = line.partition(" ")
            if not name:
                continue
            values[name] = _parse_value(raw_value)
        return hostname, float(t_s), values


def _parse_value(raw: str) -> object:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


#: frame headers: ``<B host_len> <d t> <H count>``, the schema frame's
#: behind a ``b"S"`` mode byte (``count`` is then its off-schema extras).
_HEAD = struct.Struct("<BdH")
_SCHEMA_HEAD = struct.Struct("<cBdH")
#: a packed value is its kind byte and its payload: 1 double, 2 UTF-8
#: text (``<H`` length, bytes follow), 3 int32, 4 int64.
_F64 = struct.Struct("<Bd")
_STR = struct.Struct("<BH")
_I32 = struct.Struct("<Bi")
_I64 = struct.Struct("<Bq")
_NAME = struct.Struct("<B")
#: the set bits of each byte value, lowest first: a presence bitmap is
#: read by visiting only the bits that are set.
_SET_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                  for byte in range(256))


def _pack_text(text: str) -> bytes:
    text_b = text.encode("utf-8")
    return _STR.pack(2, len(text_b)) + text_b


def _pack_value(value: object) -> bytes:
    """One schema-mode value, kind byte first: an int as the narrowest
    of int32/int64 that holds it (a double beyond), a float as a double,
    anything else as its text.  Exact types skip the ``isinstance``
    ladder."""
    kind = type(value)
    if kind is float:
        return _F64.pack(1, value)
    if kind is str:
        return _pack_text(value)
    if kind is not int:  # bool, subclasses and non-scalars
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float):
            return _F64.pack(1, float(value))
        elif not isinstance(value, int):
            return _pack_text(str(value))
    if -2**31 <= value < 2**31:
        return _I32.pack(3, value)
    if -2**63 <= value < 2**63:
        return _I64.pack(4, value)
    return _F64.pack(1, float(value))


def _pack_plain(value: object) -> bytes:
    """One schemaless value: every number (``bool`` too) is a double."""
    if isinstance(value, (int, float)):
        return _F64.pack(1, float(value))
    return _pack_text(str(value))


def _read_value(payload: bytes, pos: int) -> Tuple[object, int]:
    """The value packed at ``pos`` and the offset after it; an integral
    double reads back as an ``int``."""
    kind = payload[pos]
    if kind == 1:
        value = _F64.unpack_from(payload, pos)[1]
        return (int(value) if value.is_integer() else value), pos + 9
    if kind == 3:
        return _I32.unpack_from(payload, pos)[1], pos + 5
    if kind == 4:
        return _I64.unpack_from(payload, pos)[1], pos + 9
    if kind == 2:
        start = pos + 3
        end = start + _STR.unpack_from(payload, pos)[1]
        return payload[start:end].decode("utf-8"), end
    raise ValueError(f"unknown value kind {kind}")


def _read_named(payload: bytes, pos: int, count: int,
                values: Dict[str, object]) -> int:
    """Read ``count`` self-described ``<B len> name value`` entries at
    ``pos`` into ``values``; the offset after them."""
    for _ in range(count):
        name_at = pos + 1
        pos = name_at + payload[pos]
        name = payload[name_at:pos].decode("utf-8")
        values[name], pos = _read_value(payload, pos)
    return pos


class BinaryCodec:
    """Struct-packed binary frames: smaller, opaque, endian-fragile.

    Two modes:

    * **schemaless** (default): each value carries a length-prefixed name —
      self-describing but the names dominate the frame.
    * **schema-based**: both ends share an ordered field list (like a
      compiled MIB); the frame carries a presence bitmap and packed values,
      no names.  This is the "binary formats require less storage" point
      of §5.3.3 — and also its downside: the schema is implicit, versioned
      out-of-band, and unreadable on the wire, which is exactly why the
      paper keeps text.

    Both directions do work in proportion to the values a frame carries,
    not to the schema: encode sets bits in an int and packs exact
    ``float``/``int``/``str`` values with precompiled structs; decode
    visits only the bitmap's set bits.
    """

    name = "binary"

    def __init__(self, schema: Optional[Tuple[str, ...]] = None):
        self.schema = tuple(schema) if schema is not None else None
        self._index = ({name: i for i, name in enumerate(self.schema)}
                       if self.schema is not None else None)
        self._bitmap_len = ((len(self.schema) + 7) // 8
                            if self.schema is not None else 0)

    # -- schema mode -------------------------------------------------------
    def _encode_schema(self, hostname: str, t: float,
                       values: Mapping[str, object]) -> bytes:
        index = self._index
        bits = 0
        present = []
        extras = []
        for name, value in values.items():
            idx = index.get(name)
            if idx is None:
                extras.append((name, value))
            else:
                bits |= 1 << idx
                present.append((idx, value))
        present.sort()
        host_b = hostname.encode("utf-8")
        out = [_SCHEMA_HEAD.pack(b"S", len(host_b), t, len(extras)),
               host_b, bits.to_bytes(self._bitmap_len, "little")]
        out += [_pack_value(value) for _, value in present]
        for name, value in sorted(extras):
            name_b = name.encode("utf-8")
            out += (_NAME.pack(len(name_b)), name_b, _pack_value(value))
        return b"".join(out)

    def _decode_schema(self, payload: bytes, pos: int
                       ) -> Tuple[str, float, Dict[str, object], int]:
        mode, host_len, t, n_extras = _SCHEMA_HEAD.unpack_from(payload, pos)
        if mode != b"S":
            raise ValueError("schema frame expected")
        pos += _SCHEMA_HEAD.size
        bitmap_at = pos + host_len
        hostname = payload[pos:bitmap_at].decode("utf-8")
        pos = bitmap_at + self._bitmap_len
        schema = self.schema
        values: Dict[str, object] = {}
        base = 0
        for byte in payload[bitmap_at:pos]:
            if byte:
                for bit in _SET_BITS[byte]:
                    values[schema[base + bit]], pos = _read_value(payload,
                                                                  pos)
            base += 8
        return hostname, t, values, _read_named(payload, pos, n_extras,
                                                values)

    # -- public API ----------------------------------------------------------
    def encode(self, hostname: str, t: float,
               values: Mapping[str, object]) -> bytes:
        if self.schema is not None:
            return self._encode_schema(hostname, t, values)
        host_b = hostname.encode("utf-8")
        out = [_HEAD.pack(len(host_b), t, len(values)), host_b]
        for name in sorted(values):
            name_b = name.encode("utf-8")
            out += (_NAME.pack(len(name_b)), name_b,
                    _pack_plain(values[name]))
        return b"".join(out)

    def encode_counted(self, hostname: str, t: float,
                       values: Mapping[str, object]) -> Tuple[bytes, int]:
        """``(frame, uncompressed size)``; a binary frame is sent as
        packed, so the two sizes are one."""
        payload = self.encode(hostname, t, values)
        return payload, len(payload)

    def decode(self, payload: bytes, start: int = 0,
               end: Optional[int] = None
               ) -> Tuple[str, float, Dict[str, object]]:
        """The frame that fills ``payload[start:end]`` (all of
        ``payload`` by default), read in place.  A frame that reads past
        ``end`` or stops short of it is a ``ValueError``."""
        if end is None:
            end = len(payload)
        try:
            if self.schema is not None:
                hostname, t, values, pos = self._decode_schema(payload,
                                                               start)
            else:
                host_len, t, count = _HEAD.unpack_from(payload, start)
                pos = start + _HEAD.size + host_len
                hostname = payload[start + _HEAD.size:pos].decode("utf-8")
                values = {}
                pos = _read_named(payload, pos, count, values)
        except (struct.error, IndexError) as exc:  # a short read
            raise ValueError(f"malformed binary frame: {exc}") from None
        if pos != end:
            raise ValueError(f"binary frame spans {pos - start} bytes, "
                             f"not {end - start}")
        return hostname, t, values


#: what a transmitter given no codec sends with; a codec keeps no state
#: between frames, so every agent shares this one.
_DEFAULT_CODEC = TextCodec()


class Transmitter:
    """Sends consolidated deltas to the management node over the fabric."""

    def __init__(self, fabric: Optional[NetworkFabric],
                 src: SimulatedNode, dst: Optional[SimulatedNode], *,
                 codec: Optional[TextCodec | BinaryCodec] = None):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.codec = codec if codec is not None else _DEFAULT_CODEC
        self.frames_sent = 0
        self.bytes_sent = 0
        self.raw_bytes = 0

    def transmit_update(self, update: Update
                        ) -> Tuple[bytes, Optional[Event]]:
        """Encode one :class:`Update` and (if wired to a fabric) send
        it.  Returns (payload, event)."""
        values = update.values
        if not values:
            return b"", None
        payload, raw = self.codec.encode_counted(self.src.hostname,
                                                 update.time, values)
        self.raw_bytes += raw
        self.frames_sent += 1
        self.bytes_sent += len(payload)
        event = None
        if self.fabric is not None and self.dst is not None:
            event = self.fabric.message(self.src, self.dst, len(payload),
                                        tag="monitoring")
        return payload, event

    @property
    def compression_ratio(self) -> float:
        if self.bytes_sent == 0:
            return 1.0
        return self.raw_bytes / self.bytes_sent
