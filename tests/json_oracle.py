"""An independent JSON writer for gateway frames.

:func:`oracle_body` writes a frame list the plain way: one object per
frame, written by the stdlib encoder with sorted keys, no spaces, and
``str`` for a value JSON cannot hold.  ``JsonWire`` must write every
body, list or table, byte for byte as this does; it shares no code with
the wire, so a shortcut there cannot agree with itself here.
"""

from __future__ import annotations

import json

__all__ = ["oracle_body"]

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           default=str).encode


def oracle_body(frames) -> bytes:
    """The body of ``frames`` (``(kind, subject, t, values)`` tuples):
    one frame's object alone, else a list of them."""
    objects = [{"kind": kind, "subject": subject, "t": round(t, 3),
                "values": dict(values)}
               for kind, subject, t, values in frames]
    return _encode(objects[0] if len(objects) == 1 else objects).encode()
