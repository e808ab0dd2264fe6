"""Minimal, dependency-free HTTP/1.1 plumbing for the gateway.

Everything here is pure: bytes in, structured request out; route table
in, handler out; status + body in, response bytes out.  The asyncio
shell owns sockets, clocks and scheduling — this module owns the
protocol, so it stays deterministic (WORX102) and unit-testable without
a socket.

Only what the gateway needs is implemented: ``GET``, header parsing,
query strings, keep-alive, and chunk-free streaming responses (a watch
stream sets ``Connection: close`` and self-delimits via SSE events or
length-prefixed binary frames).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = ["HttpError", "HttpRequest", "Route", "Router",
           "parse_request", "format_response", "stream_header"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


class HttpError(Exception):
    """Protocol-level failure mapped straight to a status response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class HttpRequest:
    """One parsed request line + headers (GET only, no body)."""

    __slots__ = ("method", "path", "query", "headers")

    def __init__(self, method: str, path: str,
                 query: Mapping[str, List[str]],
                 headers: Mapping[str, str]):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers

    def param(self, name: str, default: Optional[str] = None
              ) -> Optional[str]:
        values = self.query.get(name)
        return values[0] if values else default

    @property
    def accept(self) -> Optional[str]:
        return self.headers.get("accept")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() \
            != "close"


def parse_request(raw: bytes) -> HttpRequest:
    """Parse a request head (everything up to the blank line)."""
    try:
        text = raw.decode("latin-1")
    except UnicodeDecodeError:
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    if method != "GET":
        raise HttpError(405, f"method {method} not supported")
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return HttpRequest(method, unquote(split.path),
                       parse_qs(split.query), headers)


def format_response(status: int, content_type: str, body: bytes, *,
                    keep_alive: bool = True) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: " + ("keep-alive" if keep_alive else "close")]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def stream_header(content_type: str) -> bytes:
    """Response head for an unbounded watch stream (no length; the
    payload self-delimits and the connection closes to end it)."""
    return ("HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n").encode("latin-1")


class Route:
    """One path template: literal segments plus ``{name}`` captures."""

    __slots__ = ("template", "segments", "handler")

    def __init__(self, template: str, handler: Callable):
        self.template = template
        self.segments = [s for s in template.split("/") if s]
        self.handler = handler

    def match(self, parts: List[str]) -> Optional[Dict[str, str]]:
        """The captures when ``parts``, a path's non-empty segments,
        fit this template, else None."""
        if len(parts) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for pattern, part in zip(self.segments, parts):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = part
            elif pattern != part:
                return None
        return params


class Router:
    """First-match route table."""

    def __init__(self) -> None:
        self.routes: List[Route] = []

    def add(self, template: str, handler: Callable) -> None:
        self.routes.append(Route(template, handler))

    def resolve(self, path: str) -> Tuple[Route, Dict[str, str]]:
        parts = [s for s in path.split("/") if s]   # once, not per route
        for route in self.routes:
            params = route.match(parts)
            if params is not None:
                return route, params
        raise HttpError(404, f"no route for {path!r}")
