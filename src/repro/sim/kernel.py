"""The discrete-event loop: events, timeouts and generator processes.

The kernel buckets scheduled events by exact fire time: a timer wheel
(``dict`` keyed by time, one FIFO pair per distinct instant) plus a heap
of *distinct* pending times.  Cluster workloads are dominated by
fixed-interval timeouts — thousands of agents, sweeps and message
deliveries landing on the same instant — so scheduling one of them is an
O(1) append to an existing bucket instead of an O(log n) heap push per
event; the heap only orders the (few) distinct times.  Irregular events
simply occupy single-entry buckets, so nothing needs to classify them.

Within one instant the processing order is that of a single
``(time, priority, seq)`` heap: all URGENT entries before all NORMAL
entries, FIFO within each class (creation order — the monotone sequence
number is implied by append order).  Two runs with the same seed
therefore produce identical schedules; the frozen traces replayed by
``tests/test_determinism_golden.py`` are the oracle for that order.

Processes are plain Python generators that ``yield`` events; the kernel
resumes a process when the yielded event fires, sending the event's value
back into the generator (or throwing, if the event failed).  Interrupt
and kill *lazily cancel* the process's subscription to whatever it was
waiting on: instead of an O(n) ``list.remove`` on the target's callback
list, the target is marked stale and its eventual resumption is ignored.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "SimKernel",
    "Timeout",
]

#: Priority for ordinary events.
NORMAL = 1
#: Priority for urgent events (process bootstraps/interrupts) at equal time.
URGENT = 0

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries whatever object the interrupter supplied
    (for cluster simulations this is typically a fault descriptor or a
    power-cycle notice from an ICE Box).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Raised inside a process that has been forcibly killed."""


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value via :meth:`succeed` or :meth:`fail`, and is *processed* after the
    kernel has run its callbacks.
    """

    __slots__ = ("kernel", "callbacks", "_value", "_ok", "defused")

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set to True once a failure has been handled by a waiter, so
        #: unhandled failures can be surfaced at the end of the run.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.kernel._enqueue(self.kernel._now, NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiter (process or callback) must *defuse* the failure, otherwise
        :meth:`SimKernel.run` re-raises it when the event is processed.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.kernel._enqueue(self.kernel._now, NORMAL, self)
        return self

    def trigger(self, event: "Event") -> None:
        """Chain: trigger this event with another event's outcome."""
        if event._value is _PENDING:
            raise RuntimeError("source event not triggered")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.kernel.now}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "SimKernel", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._ok = True
        self._value = value
        kernel._enqueue(kernel._now + delay, NORMAL, self)


class Initialize(Event):
    """Internal: bootstraps a process at the current time, urgently."""

    __slots__ = ()

    def __init__(self, kernel: "SimKernel", process: "Process"):
        super().__init__(kernel)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        kernel._enqueue(kernel._now, URGENT, self)


class Process(Event):
    """A running generator; itself an event that fires on termination.

    The process's value is the generator's return value (or the exception
    that terminated it).  Use :meth:`interrupt` to throw
    :class:`Interrupt` into the generator at the current simulation time.
    """

    __slots__ = ("_generator", "name", "_target", "_stale")

    def __init__(self, kernel: "SimKernel", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(kernel)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: events this process detached from (lazy cancellation): their
        #: eventual firing must not resume the process.
        self._stale: Optional[set] = None
        self._target: Optional[Event] = Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def _detach(self) -> None:
        """Lazily cancel the subscription to the current wait target."""
        target = self._target
        if target is not None and target.callbacks is not None:
            if self._stale is None:
                self._stale = set()
            self._stale.add(target)

    @property
    def is_started(self) -> bool:
        """Has the generator reached its first yield?  An interrupt can
        only land inside a *started* generator — thrown earlier it would
        surface at the function header instead of the current wait."""
        generator = self._generator
        return (generator.gi_frame is None or generator.gi_running
                or generator.gi_suspended)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process (at the current time)."""
        if not self.is_alive:
            return
        if self._target is None:
            raise RuntimeError("cannot interrupt a process bootstrapping")
        event = Event(self.kernel)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.kernel._enqueue(self.kernel._now, URGENT, event)
        # Detach from what we were waiting on so the old event does not also
        # resume us later.
        self._detach()

    def kill(self) -> None:
        """Forcibly terminate the process via :class:`ProcessKilled`."""
        if not self.is_alive:
            return
        self._detach()
        try:
            self._generator.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        if self.is_alive:
            self._ok = True
            self._value = None
            self.kernel._enqueue(self.kernel._now, NORMAL, self)

    # -- resumption -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        stale = self._stale
        if stale is not None and event in stale:
            # Lazily-cancelled subscription: the waiter moved on before
            # this event fired.  Failures keep their old semantics — we
            # do not defuse what we no longer handle.
            stale.discard(event)
            return
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.kernel._enqueue(self.kernel._now, NORMAL, self)
                break
            except ProcessKilled:
                self._ok = True
                self._value = None
                self.kernel._enqueue(self.kernel._now, NORMAL, self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.kernel._enqueue(self.kernel._now, NORMAL, self)
                break
            if not isinstance(target, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded non-event {target!r}")
                event = Event(self.kernel)
                event._ok = False
                event._value = exc
                continue
            if target.kernel is not self.kernel:
                raise RuntimeError("event belongs to a different kernel")
            if target.callbacks is not None:
                # Not yet processed: wait for it.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Already processed: feed its value straight back in.
            event = target


class ConditionValue(dict):
    """Mapping of event -> value for the events a condition matched."""


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_count", "_completed")

    def __init__(self, kernel: "SimKernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._count = 0
        self._completed: list[Event] = []
        if not self.events:
            self.succeed(ConditionValue())
            return
        for event in self.events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _match(self, count: int, total: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        self._completed.append(event)
        if self._match(self._count, len(self.events)):
            value = ConditionValue()
            # Only events that actually completed — a pending Timeout has a
            # preset value but has not fired yet.
            completed = set(self._completed)
            for ev in self.events:
                if ev in completed:
                    value[ev] = ev._value
            self.succeed(value)


class AllOf(_Condition):
    """Fires once *all* of the given events have fired."""

    __slots__ = ()

    def _match(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(_Condition):
    """Fires once *any* of the given events has fired."""

    __slots__ = ()

    def _match(self, count: int, total: int) -> bool:
        return count >= 1


class _Bucket:
    """All events scheduled for one exact instant, split by priority."""

    __slots__ = ("urgent", "normal")

    def __init__(self) -> None:
        self.urgent: deque = deque()
        self.normal: deque = deque()


class SimKernel:
    """The discrete-event loop.

    Typical use::

        kernel = SimKernel()

        def worker(kernel):
            yield kernel.timeout(5.0)
            return "done"

        proc = kernel.process(worker(kernel))
        kernel.run()
        assert proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._pending = 0
        #: total events processed by step() — the denominator benchmarks
        #: use for events/s.
        self.events_processed = 0
        self._wheel: dict[float, _Bucket] = {}
        self._times: list[float] = []

    @property
    def now(self) -> float:
        """Current simulation time (seconds, by repo-wide convention)."""
        return self._now

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _enqueue(self, time: float, priority: int, event: Event) -> None:
        self._pending += 1
        bucket = self._wheel.get(time)
        if bucket is None:
            bucket = self._wheel[time] = _Bucket()
            heapq.heappush(self._times, time)
        if priority == NORMAL:
            bucket.normal.append(event)
        else:
            bucket.urgent.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if not self._pending:
            return float("inf")
        times = self._times
        while True:
            time = times[0]
            bucket = self._wheel[time]
            if bucket.urgent or bucket.normal:
                return time
            # Exhausted instant: retire it and look at the next one.
            heapq.heappop(times)
            del self._wheel[time]

    def _pop(self) -> tuple[float, Event]:
        time = self.peek()
        bucket = self._wheel[time]
        if bucket.urgent:
            return time, bucket.urgent.popleft()
        return time, bucket.normal.popleft()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        time, event = self._pop()
        self._pending -= 1
        self.events_processed += 1
        if time < self._now:
            raise RuntimeError("event scheduled in the past")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a deadline passes, or an event
        fires.

        ``until`` may be a simulation time (the clock is advanced exactly to
        it) or an :class:`Event` (its value is returned; a failed event
        re-raises its exception).
        """
        if until is None:
            while self._pending:
                self.step()
            return None
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._pending:
                    raise RuntimeError(
                        "no scheduled events left but 'until' event "
                        "has not fired")
                self.step()
            if stop._ok:
                return stop._value
            raise stop._value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={self._now})")
        while self._pending and self.peek() <= deadline:
            self.step()
        self._now = deadline
        return None
