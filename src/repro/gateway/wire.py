"""Gateway wire formats: JSON for humans, schema-packed frames for fleets.

E7 (§5.3.3) already measured the trade: schema-packed binary frames are
roughly half the size of the text encoding because both ends share an
ordered field list and the wire carries only a presence bitmap plus
packed values.  The gateway is where that result finally pays off
against real traffic — a summary poll from thousands of clients is
dominated by encode cost and bytes out, not by the O(1) rollup read.

Every response body is a sequence of **frames**.  A frame is
``(kind, subject, t, values)``:

* ``kind`` — what the frame describes (``summary``, ``host``,
  ``delta``, ``event``, ``stats``, ...);
* ``subject`` — the entity (a hostname, a rule name, ``cluster``);
* ``t`` — the simulation time the values were read at;
* ``values`` — a flat ``name -> scalar`` mapping.

:class:`JsonWire` renders frames as JSON objects (single object for a
one-frame response, an array otherwise; SSE ``data:`` lines on a watch
stream).  :class:`BinaryWire` reuses
:class:`~repro.monitoring.transmission.BinaryCodec` in schema mode —
the exact E7 framing — with one shared schema per frame kind, and
length-prefixes each frame so streams self-delimit.  Codec choice is
negotiated per request via the ``Accept`` header (:func:`negotiate`).
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from collections import deque
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import add, itemgetter
from typing import (Callable, Collection, Dict, Iterable, Iterator, List,
                    Mapping, NamedTuple, Optional, Sequence, Tuple, Union)

from repro.core.statestore import Group
from repro.monitoring.transmission import BinaryCodec

__all__ = ["Frame", "FrameTable", "Frames", "JsonWire", "BinaryWire",
           "negotiate", "BINARY_CONTENT_TYPE", "JSON_CONTENT_TYPE",
           "SUMMARY_SCHEMA", "STATS_SCHEMA", "EVENT_SCHEMA"]

#: one response/stream element: (kind, subject, t, values).
Frame = Tuple[str, str, float, Mapping[str, object]]

JSON_CONTENT_TYPE = "application/json"
BINARY_CONTENT_TYPE = "application/x-worx-frame"

#: shared field order for cluster-summary frames (both ends compile
#: this in, like the MIB of §5.3.3 — nothing but the bitmap and packed
#: values travels).
SUMMARY_SCHEMA: Tuple[str, ...] = (
    "nodes_total", "nodes_up", "nodes_down", "cpu_util_mean_pct",
    "mem_used_bytes", "mem_total_bytes", "cpu_temp_max_c", "generation",
    "events_active", "sim_time")

#: shared field order for gateway /stats frames.
STATS_SCHEMA: Tuple[str, ...] = (
    "requests", "qps", "latency_p50_ms", "latency_p99_ms",
    "bytes_out", "active_watchers", "watch_frames", "watch_coalesced",
    "watch_dropped", "watch_evictions", "publishes", "publish_reuses",
    "errors")

#: shared field order for active-event / event-log frames.
EVENT_SCHEMA: Tuple[str, ...] = (
    "rule", "node", "action", "severity", "value", "action_ok", "time")

#: frame-kind byte on the binary wire (order is the wire contract).
_KIND_CODES: Dict[str, int] = {
    "summary": 1, "host": 2, "delta": 3, "event": 4, "stats": 5,
    "hosts": 6, "error": 7, "end": 8, "evicted": 9, "history": 10,
    "shard": 11}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}
#: ``<I length> <B kind>`` ahead of each binary frame; the length
#: counts the kind byte.
_FRAME_HEAD = struct.Struct("<IB")


class FrameTable:
    """The frames of an O(N) response, not built: its groups are read
    off ``snapshot`` (a ``Snapshot`` or ``FederatedSnapshot``; sorted
    ``fields`` projected, all when None) column by column as it is
    written or iterated.  A table with the ``number`` of the view it
    reads is the table of every host of that view (``subjects``
    sorted), the one :class:`JsonWire` keeps its last body of.  Such a
    table carries the ``base`` view whose every logged change it holds
    (the view itself unless given), and may carry ``changed_since(n)``:
    the hosts whose ``fields`` changed between view ``n`` and this one,
    or None when that is not known."""

    __slots__ = ("kind", "t", "subjects", "snapshot", "fields",
                 "number", "base", "changed_since")

    def __init__(self, kind: str, t: float, subjects: Tuple[str, ...],
                 snapshot, fields: Optional[Tuple[str, ...]] = None, *,
                 number: Optional[int] = None,
                 base: Optional[int] = None,
                 changed_since: Optional[
                     Callable[[int], Optional[Collection[str]]]] = None):
        self.kind, self.t, self.subjects = kind, t, subjects
        self.snapshot, self.fields = snapshot, fields
        self.number, self.changed_since = number, changed_since
        self.base = number if base is None else base

    def __len__(self) -> int:
        return len(self.subjects)

    def groups(self) -> List[Group]:
        return self.snapshot.columns(self.subjects, self.fields)

    def __iter__(self) -> Iterator[Frame]:
        for names, subjects, columns in self.groups():
            for subject, *row in zip(subjects, *columns):
                yield self.kind, subject, self.t, dict(zip(names, row))


#: a response body's frames: a list, or a table standing for one.
Frames = Union[List[Frame], FrameTable]

#: every JSON body's encoder; a value JSON cannot hold (a plug-in's set,
#: say) is written as its ``str``, the text the binary wire carries.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          default=str).encode
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: by exact type: ``json`` writes an int/float subclass by its base's repr.
_JSON_SCALARS: Dict[type, Callable[[object], str]] = {
    float: _json_float, int: int.__repr__, str: encode_basestring_ascii,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null"}


def _json_value(value: object) -> str:
    """One value exactly as ``json.dumps`` writes it inside a body."""
    write = _JSON_SCALARS.get(type(value))
    return write(value) if write is not None else _dumps(value)


#: a column's writer by the one exact type of all its values.
_COLUMN_WRITERS: Dict[type, Callable[[object], str]] = {
    float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def _column(column: List[object]) -> Iterable[str]:
    """Each value of ``column`` as :func:`_json_value` writes it: by one
    ``map`` of the writer of its one exact type (once for a text column
    of one value), else by that function per value.  A float column
    holding a NaN or an infinity (its sum is then not finite) is
    written by ``float.__repr__`` too and mended in its own joined
    text, since a float's repr holds no other ``n``."""
    kinds = set(map(type, column))
    write = _COLUMN_WRITERS.get(next(iter(kinds))) if len(kinds) == 1 \
        else None
    if write is None:
        return map(_json_value, column)
    if write is encode_basestring_ascii \
            and column.count(column[0]) == len(column):
        return repeat(write(column[0]), len(column))
    if write is float.__repr__ and not isfinite(sum(column)):
        return ",".join(map(write, column)).replace("nan", "NaN") \
            .replace("inf", "Infinity").split(",")
    return map(write, column)


def _rounded(times: List[object]) -> Iterable[str]:
    """:func:`_column` of ``round(t, 3)`` for each of ``times``.  A
    column of finite floats below 1e11 in size is written by one
    ``"%.3f"`` format, without the trailing zeros: it rounds as
    ``round`` does, and its at most 14 significant digits are fewer
    than the 15 every double keeps, so no shorter text reads as the
    rounded float and these digits are its repr."""
    if set(map(type, times)) == {float} and isfinite(sum(times)) \
            and -1e11 < min(times) and max(times) < 1e11:
        text = (("%.3f," * len(times)) % tuple(times)).replace(
            "000,", ",").replace("00,", ",").replace("0,", ",")
        return text.replace(".,", ".0,")[:-1].split(",")
    return _column(list(map(round, times, repeat(3))))


def _obj(frame: Frame) -> Dict[str, object]:
    kind, subject, t, values = frame
    return {"kind": kind, "subject": subject, "t": round(t, 3),
            "values": dict(values)}


#: what a list body's frame ends with while another one follows.
_NEXT_FRAME = ',{"kind":'


def _run(run: Sequence[Frame], names: Tuple[object, ...]) -> Iterator[str]:
    """The text of ``run``, frames of a list body whose values have the
    keys ``names``, from the first frame's ``kind`` value on, each frame
    up to the next one's: each field a column written by one ``map``
    (:func:`_column`), the columns and the text between them zipped.
    Keys other than ``str`` are the stdlib encoder's to sort, frame by
    frame."""
    if set(map(type, names)) - {str}:
        pieces = [map(str.__getitem__, map(_dumps, map(_obj, run)),
                      repeat(slice(len('{"kind":'), None)))]
        close = ""
    else:
        pieces = [_column(list(map(itemgetter(0), run))),
                  repeat(',"subject":'),
                  _column(list(map(itemgetter(1), run))),
                  repeat(',"t":'),
                  _rounded(list(map(itemgetter(2), run)))]
        values = list(map(itemgetter(3), run))
        separator = ',"values":{'
        for name in sorted(names):
            pieces += (repeat(separator + encode_basestring_ascii(name)
                              + ":"),
                       _column(list(map(itemgetter(name), values))))
            separator = ","
        close = ("" if names else separator) + "}}"
    pieces.append(repeat(close + _NEXT_FRAME))
    return chain.from_iterable(zip(*pieces))


def _frames_text(frames: List[Frame]) -> str:
    """``_dumps`` of a list of frames' objects, written column by
    column: one :func:`_run` per run of frames whose values have one
    key tuple, all joined once."""
    pieces = ['[{"kind":']
    start = 0
    for names, run in groupby(list(map(tuple, map(itemgetter(3),
                                                   frames)))):
        stop = start + len(list(run))
        pieces += _run(frames[start:stop], names)
        start = stop
    pieces[-1] = pieces[-1][:-len(_NEXT_FRAME)] + "]"
    return "".join(pieces)


class _TableMemo(NamedTuple):
    """An all-hosts body kept to write the next one: the ASCII bytes
    between each row's ``"values":{`` and the next row's ``"t"`` key
    (``pieces[0]`` is the first row's before it), the table they were
    written from (its ``kind``, ``subjects``, ``fields``, ``number`` and
    ``base``; :class:`FrameTable`), and ``body``, ``pieces`` joined on
    ``shared``, the ``,"t":…,"values":{`` the rows share."""

    kind: str
    subjects: Tuple[str, ...]
    fields: Optional[Tuple[str, ...]]
    pieces: List[bytes]
    number: int
    base: int
    shared: bytes
    body: bytes


def _head(kind: str, subjects: Tuple[str, ...]) -> bytes:
    """A table's bytes up to its first row's ``"t"`` key."""
    return (("[" if len(subjects) > 1 else "") + '{"kind":'
            + encode_basestring_ascii(kind) + ',"subject":'
            + encode_basestring_ascii(subjects[0])).encode()


def _rows(kind: str, subjects: Tuple[str, ...], rows: Sequence[int],
          names: Tuple[str, ...], columns: List[List[object]]
          ) -> Iterator[bytes]:
    """The bytes after ``"values":{`` of each of ``rows`` (ascending
    indexes into a table's ``subjects``; ``columns`` hold their values):
    its values, each column made text by one ``map``, then the row's
    close and the next row's text up to its ``"t"`` key, or the body's
    end after the table's last row — each row one ``"".join`` of the
    pieces zipped, encoded."""
    ends = rows[-1] == len(subjects) - 1
    count = len(rows) - ends
    pieces = []
    separator = ""
    for name, column in zip(names, columns):
        pieces += (repeat(separator + encode_basestring_ascii(name) + ":"),
                   _column(column))
        separator = ","
    # The table's last row closes the body instead of opening a row.
    end, blank = (("}}]" if len(subjects) > 1 else "}}",), ("",)) \
        if ends else ((), ())
    close = '}},{"kind":' + encode_basestring_ascii(kind) + ',"subject":'
    nexts = map(subjects.__getitem__, map(add, islice(rows, count),
                                          repeat(1)))
    pieces += (chain(repeat(close, count), end),
               chain(map(encode_basestring_ascii, nexts), blank))
    return map(str.encode, map("".join, zip(*pieces)))


def _reread(memo: _TableMemo, table: FrameTable) -> Optional[List[bytes]]:
    """``memo``'s pieces with only the rows of the hosts ``table``'s
    ``changed_since`` names since ``memo``'s base read off ``table`` and
    written again, or None when the log cannot say or a host it names
    is not a row of ``table`` or lacks a field."""
    changed = table.changed_since(memo.base)
    if not changed:
        return memo.pieces if changed is not None else None
    hosts = sorted(changed)
    subjects = memo.subjects
    rows = list(map(bisect_left, repeat(subjects), hosts))
    if rows[-1] >= len(subjects) \
            or list(map(subjects.__getitem__, rows)) != hosts:
        return None
    groups = table.snapshot.columns(hosts, table.fields)
    if len(groups) != 1 or groups[0][0] != table.fields:
        return None
    pieces = memo.pieces.copy()
    deque(map(pieces.__setitem__, map(add, rows, repeat(1)),
              _rows(memo.kind, subjects, rows, table.fields,
                    groups[0][2])), 0)
    return pieces


class JsonWire:
    """Frames as JSON: self-describing, greppable, and ~2x the bytes."""

    name = "json"
    content_type = JSON_CONTENT_TYPE
    stream_content_type = "text/event-stream"

    def __init__(self):
        #: the last all-hosts table's body (:class:`_TableMemo`): only
        #: such a table reads or replaces it, one assignment a body.
        self._memo: Optional[_TableMemo] = None

    @property
    def kept_body(self) -> Optional[bytes]:
        """The last all-hosts body: the object :meth:`encode` returns
        again while no row and no ``t`` changed."""
        return self._memo.body if self._memo is not None else None

    def _encode_table(self, table: FrameTable) -> bytes:
        """``encode(list(table))``: the rows' bytes split around the
        ``"t":…,"values":{`` they share and joined on it.  An all-hosts
        table over the last one's hosts and fields is that body's rows
        when it reads the same view, or, on a later view, them with the
        rows its ``changed_since`` names since the body's base rewritten;
        with no row changed and the same ``t`` it is that body, the very
        object.  Any other table, and one the change log cannot answer
        for, is written whole."""
        subjects = table.subjects
        if not subjects:
            return b"[]"
        keep = table.number is not None
        memo = self._memo if keep else None
        if memo is not None and (memo.subjects is not subjects
                                 or memo.kind != table.kind
                                 or memo.fields != table.fields):
            memo = None
        pieces = None
        if memo is not None and table.number == memo.number:
            pieces = memo.pieces
        elif memo is not None and table.number > memo.number \
                and table.changed_since is not None:
            pieces = _reread(memo, table)
        if pieces is None:
            groups = table.groups()
            pieces, start = [_head(table.kind, subjects)], 0
            for names, run, columns in groups:
                stop = start + len(run)
                pieces += _rows(table.kind, subjects, range(start, stop),
                                names, columns)
                start = stop
            keep = keep and len(groups) == 1
        shared = (',"t":' + _json_value(round(table.t, 3))
                  + ',"values":{').encode()
        if memo is not None and pieces is memo.pieces \
                and shared == memo.shared:
            body = memo.body
        else:
            body = shared.join(pieces)
        if keep:
            self._memo = _TableMemo(table.kind, subjects, table.fields,
                                    pieces, table.number, table.base,
                                    shared, body)
        return body

    def encode(self, frames: Frames) -> bytes:
        """One response body: a single object, or an array of them."""
        if isinstance(frames, FrameTable):
            return self._encode_table(frames)
        if len(frames) == 1:
            return _dumps(_obj(frames[0])).encode()
        return _frames_text(frames).encode() if frames else b"[]"

    def encode_stream(self, frame: Frame) -> bytes:
        """One server-sent event carrying one frame."""
        return b"data: " + _dumps(_obj(frame)).encode("utf-8") \
            + b"\n\n"

    def decode(self, body: bytes) -> List[Frame]:
        payload = json.loads(body.decode("utf-8"))
        objs = payload if isinstance(payload, list) else [payload]
        return [(o["kind"], o["subject"], float(o["t"]), o["values"])
                for o in objs]


class BinaryWire:
    """Frames as length-prefixed schema-packed E7 binary.

    Layout per frame::

        <I total_len> <B kind> <BinaryCodec schema frame>

    where the codec frame carries (subject, t, bitmap, packed values)
    exactly as :class:`~repro.monitoring.transmission.BinaryCodec` in
    schema mode emits it; fields outside the kind's schema ride along
    self-described, so plugin metrics still fit.  The 4-byte length
    prefix makes both a pipelined response body and a live watch stream
    self-delimiting.
    """

    name = "binary"
    content_type = BINARY_CONTENT_TYPE
    stream_content_type = BINARY_CONTENT_TYPE

    def __init__(self, metric_schema: Optional[Iterable[str]] = None):
        metric_codec = BinaryCodec(schema=tuple(metric_schema)
                                   if metric_schema else None)
        event_codec = BinaryCodec(schema=EVENT_SCHEMA)
        self._codecs: Dict[str, BinaryCodec] = {
            "summary": BinaryCodec(schema=SUMMARY_SCHEMA),
            "stats": BinaryCodec(schema=STATS_SCHEMA),
            "host": metric_codec,
            "delta": metric_codec,
            "event": event_codec,
        }
        #: schemaless fallback for ad-hoc kinds (hosts, error, end).
        self._plain = BinaryCodec()

    def _codec(self, kind: str) -> BinaryCodec:
        return self._codecs.get(kind, self._plain)

    def encode_frame(self, frame: Frame) -> bytes:
        kind, subject, t, values = frame
        code = _KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown frame kind {kind!r}")
        body = self._codec(kind).encode(subject, t, values)
        return _FRAME_HEAD.pack(len(body) + 1, code) + body

    def encode(self, frames: Frames) -> bytes:
        return b"".join(self.encode_frame(frame) for frame in frames)

    #: a watch stream uses the identical framing — that is the point.
    encode_stream = encode_frame

    def decode(self, body: bytes) -> List[Frame]:
        """Every frame of ``body``, each read in place; a length prefix
        that runs past the body, a frame that does not fill its length
        exactly, or a short read is a ``ValueError``."""
        frames: List[Frame] = []
        pos, size = 0, len(body)
        while pos < size:
            if size - pos < _FRAME_HEAD.size:
                raise ValueError(f"truncated frame header at {pos}")
            length, code = _FRAME_HEAD.unpack_from(body, pos)
            end = pos + 4 + length
            if length < 1 or end > size:
                raise ValueError(f"frame length {length} at {pos} does "
                                 f"not fit the {size}-byte body")
            kind = _CODE_KINDS.get(code)
            if kind is None:
                raise ValueError(f"unknown frame code {code}")
            subject, t, values = self._codec(kind).decode(body, pos + 5,
                                                          end)
            frames.append((kind, subject, t, values))
            pos = end
        return frames


def negotiate(accept: Optional[str],
              binary_wire: BinaryWire,
              json_wire: JsonWire) -> "BinaryWire | JsonWire":
    """Pick the response codec from an ``Accept`` header.

    A client that lists the frame media type gets packed frames; every
    other value (absent header, ``*/*``, ``application/json``) gets
    JSON — text stays the safe, self-describing default, exactly the
    paper's §5.3.3 position, with binary as the opt-in for fleets that
    poll at scale.
    """
    if accept and BINARY_CONTENT_TYPE in accept:
        return binary_wire
    return json_wire
