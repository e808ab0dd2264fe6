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
from typing import Dict, Optional, Tuple

from repro.hardware.node import SimulatedNode
from repro.monitoring.records import Update
from repro.network.fabric import NetworkFabric
from repro.sim import Event

__all__ = ["TextCodec", "BinaryCodec", "Transmitter"]


class TextCodec:
    """Human-readable lines, optionally zlib-compressed."""

    name = "text"

    def __init__(self, compress: bool = True, level: int = 6):
        self.compress = compress
        self.level = level

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
    """

    name = "binary"

    def __init__(self, schema: Optional[Tuple[str, ...]] = None):
        self.schema = tuple(schema) if schema is not None else None
        self._index = ({name: i for i, name in enumerate(self.schema)}
                       if self.schema is not None else None)

    # -- schema mode -------------------------------------------------------
    def _encode_value(self, value: object) -> bytes:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int) and -2**31 <= value < 2**31:
            return b"\x03" + struct.pack("<i", value)
        if isinstance(value, int) and -2**63 <= value < 2**63:
            return b"\x04" + struct.pack("<q", value)
        if isinstance(value, (int, float)):
            return b"\x01" + struct.pack("<d", float(value))
        value_b = str(value).encode("utf-8")
        return b"\x02" + struct.pack("<H", len(value_b)) + value_b

    def _decode_value(self, payload: bytes, pos: int):
        kind = payload[pos:pos + 1]
        pos += 1
        if kind == b"\x03":
            (v,) = struct.unpack_from("<i", payload, pos)
            return v, pos + 4
        if kind == b"\x04":
            (v,) = struct.unpack_from("<q", payload, pos)
            return v, pos + 8
        if kind == b"\x01":
            (v,) = struct.unpack_from("<d", payload, pos)
            return (int(v) if v.is_integer() else v), pos + 8
        (vlen,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        return payload[pos:pos + vlen].decode("utf-8"), pos + vlen

    def _encode_schema(self, hostname: str, t: float,
                       values: Dict[str, object]) -> bytes:
        host_b = hostname.encode("utf-8")
        bitmap = bytearray((len(self.schema) + 7) // 8)
        ordered = []
        extras = {}
        for name, value in values.items():
            idx = self._index.get(name)
            if idx is None:
                extras[name] = value
                continue
            bitmap[idx // 8] |= 1 << (idx % 8)
            ordered.append((idx, value))
        ordered.sort()
        out = [b"S", struct.pack("<Bd H", len(host_b), t,
                                 len(extras)), host_b,
               bytes(bitmap)]
        for _, value in ordered:
            out.append(self._encode_value(value))
        for name in sorted(extras):
            name_b = name.encode("utf-8")
            out.append(struct.pack("<B", len(name_b)) + name_b)
            out.append(self._encode_value(extras[name]))
        return b"".join(out)

    def _decode_schema(self, payload: bytes
                       ) -> Tuple[str, float, Dict[str, object]]:
        pos = 1  # mode byte
        host_len, t, n_extras = struct.unpack_from("<Bd H", payload, pos)
        pos += struct.calcsize("<Bd H")
        hostname = payload[pos:pos + host_len].decode("utf-8")
        pos += host_len
        bitmap_len = (len(self.schema) + 7) // 8
        bitmap = payload[pos:pos + bitmap_len]
        pos += bitmap_len
        values: Dict[str, object] = {}
        for idx, name in enumerate(self.schema):
            if bitmap[idx // 8] & (1 << (idx % 8)):
                values[name], pos = self._decode_value(payload, pos)
        for _ in range(n_extras):
            name_len = payload[pos]
            pos += 1
            name = payload[pos:pos + name_len].decode("utf-8")
            pos += name_len
            values[name], pos = self._decode_value(payload, pos)
        return hostname, t, values

    # -- public API ----------------------------------------------------------
    def encode(self, hostname: str, t: float,
               values: Dict[str, object]) -> bytes:
        if self.schema is not None:
            return self._encode_schema(hostname, t, values)
        host_b = hostname.encode("utf-8")
        out = [struct.pack("<Bd H", len(host_b), t, len(values)), host_b]
        for name in sorted(values):
            name_b = name.encode("utf-8")
            out.append(struct.pack("<B", len(name_b)))
            out.append(name_b)
            value = values[name]
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                out.append(b"\x01" + struct.pack("<d", float(value)))
            else:
                value_b = str(value).encode("utf-8")
                out.append(b"\x02" + struct.pack("<H", len(value_b))
                           + value_b)
        return b"".join(out)

    def encode_counted(self, hostname: str, t: float,
                       values: Dict[str, object]) -> Tuple[bytes, int]:
        """``(frame, uncompressed size)``; a binary frame is sent as
        packed, so the two sizes are one."""
        payload = self.encode(hostname, t, values)
        return payload, len(payload)

    def decode(self, payload: bytes
               ) -> Tuple[str, float, Dict[str, object]]:
        if self.schema is not None:
            if payload[:1] != b"S":
                raise ValueError("schema frame expected")
            return self._decode_schema(payload)
        host_len, t, count = struct.unpack_from("<Bd H", payload, 0)
        pos = struct.calcsize("<Bd H")
        hostname = payload[pos:pos + host_len].decode("utf-8")
        pos += host_len
        values: Dict[str, object] = {}
        for _ in range(count):
            name_len = payload[pos]
            pos += 1
            name = payload[pos:pos + name_len].decode("utf-8")
            pos += name_len
            kind = payload[pos:pos + 1]
            pos += 1
            if kind == b"\x01":
                (value,) = struct.unpack_from("<d", payload, pos)
                pos += 8
                values[name] = int(value) if value.is_integer() else value
            else:
                (vlen,) = struct.unpack_from("<H", payload, pos)
                pos += 2
                values[name] = payload[pos:pos + vlen].decode("utf-8")
                pos += vlen
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
