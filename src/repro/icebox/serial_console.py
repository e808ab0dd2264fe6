"""Serial console capture (§3.3).

Each ICE Box port buffers "up to 16k" of a node's serial output, enabling
"post-mortem analysis on what has happened to a specific node" — e.g.
reading the kernel panic and the LinuxBIOS error report of a node that is
now dead.  The port registers itself as the node's ``console_sink``; the
server's console archive keeps the timestamped chunks.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hardware.node import SimulatedNode
from repro.util.ringbuffer import ByteRingBuffer

__all__ = ["SerialPort"]


class SerialPort:
    """One console port with a 16 KiB capture ring buffer."""

    BUFFER_CAPACITY = 16 * 1024

    def __init__(self, index: int):
        self.index = index
        self.node: Optional[SimulatedNode] = None
        self.buffer = ByteRingBuffer(self.BUFFER_CAPACITY)
        #: live listeners (telnet/ssh sessions mirroring the console).
        self._listeners: List[Callable[[str], None]] = []

    def attach(self, node: SimulatedNode) -> None:
        if self.node is not None:
            raise RuntimeError(f"port {self.index} already attached")
        self.node = node
        node.console_sink = self._sink

    def detach(self) -> None:
        if self.node is not None and self.node.console_sink == self._sink:
            self.node.console_sink = None
        self.node = None

    def _sink(self, text: str) -> None:
        if not text:
            return
        self.buffer.write(text)
        for listener in list(self._listeners):
            listener(text)

    # -- access -------------------------------------------------------------
    def subscribe(self, listener: Callable[[str], None]) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[str], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def capture(self) -> str:
        """Current buffer contents (what a post-mortem reads)."""
        return self.buffer.text()

    def tail(self, lines: int = 20) -> List[str]:
        return self.buffer.tail_lines(lines)

    def send(self, text: str) -> bool:
        """Type into the node's console. Only a running OS reacts."""
        if self.node is None or not self.node.is_running():
            return False
        # Echo is the only universal behaviour we model.
        self._sink(text)
        return True

    def clear(self) -> None:
        self.buffer.clear()
