"""Simulated network fabric: bandwidth pools, flows, and transfers.

The model is *flow-level*, not packet-level: a transfer is a flow with a
byte count that drains at a rate set by its bottleneck.  Every
:class:`BandwidthPool` (a NIC, a switch segment, an uplink) splits its
capacity equally among the flows crossing it; a flow's instantaneous rate is
the minimum split across the pools it traverses.  Rates are recomputed
event-driven whenever a flow starts or finishes, so a 400-node cloning run
costs O(nodes) events rather than O(packets).

This is exactly the granularity the paper's claims live at: multicast
cloning wins because one stream serves N receivers (§4), and monitoring
transmission matters through the *bytes it puts on a shared segment*
(§5.3.3), not through per-packet behaviour.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.node import SimulatedNode
from repro.sim import Event, SimKernel, Timeout

__all__ = ["BandwidthPool", "Flow", "NetworkFabric"]


class BandwidthPool:
    """A capacity that active flows share equally."""

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        self.flows: set["Flow"] = set()

    def share(self) -> float:
        """Per-flow rate this pool currently allows."""
        if not self.flows:
            return self.capacity
        return self.capacity / len(self.flows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pool {self.name} {self.capacity:.0f}B/s x{len(self.flows)}>"


class Flow:
    """One in-flight transfer."""

    __slots__ = ("nbytes", "remaining", "pools", "done", "rate",
                 "last_update", "tag")

    def __init__(self, nbytes: float, pools: Sequence[BandwidthPool],
                 done: Event, tag: str):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.pools = tuple(pools)
        self.done = done
        self.rate = 0.0
        self.last_update = 0.0
        self.tag = tag


class NetworkFabric:
    """The cluster network: per-node NIC pools plus named shared segments.

    Transfers::

        ev = fabric.unicast(src_node, dst_node, nbytes)
        yield ev                      # inside a simulation process

    Accounting: every completed transfer credits the endpoint NIC counters
    (visible in /proc/net/dev) and a per-tag byte ledger used by the
    monitoring-overhead experiment.
    """

    def __init__(self, kernel: SimKernel, *,
                 segment_capacity: float = 12.5e6,
                 latency: float = 0.0002):
        self.kernel = kernel
        #: the shared backbone segment (fast Ethernet by default).
        self.segment = BandwidthPool("segment", segment_capacity)
        self.latency = latency
        self._nic_pools: Dict[SimulatedNode, BandwidthPool] = {}
        self._flows: set[Flow] = set()
        self._wake_token = 0
        #: total bytes completed, per tag.
        self.bytes_by_tag: Dict[str, float] = {}
        self.nodes: Dict[str, SimulatedNode] = {}
        #: undelivered datagrams: (fire instant, nbytes) -> the instant's
        #: one timer and a flat ``[src, dst, tag, src, dst, tag, ...]`` in
        #: send order.  Flat, so a pending datagram is three list slots
        #: and no object the cyclic collector has to track.
        self._batches: Dict[Tuple[float, float], Tuple[Timeout, list]] = {}

    # -- topology ---------------------------------------------------------
    def attach(self, node: SimulatedNode) -> None:
        """Connect a node's first NIC to the fabric."""
        if node.hostname in self.nodes:
            raise ValueError(f"{node.hostname} already attached")
        self.nodes[node.hostname] = node
        self._nic_pools[node] = BandwidthPool(
            f"nic:{node.hostname}", node.nic.effective_rate)

    def attach_all(self, nodes: Iterable[SimulatedNode]) -> None:
        for node in nodes:
            self.attach(node)

    def detach(self, node: SimulatedNode) -> None:
        """Undo :meth:`attach` (hot-remove): the node can no longer send
        or be looked up.  Transfers already under way hold their own
        references and still complete and credit its NIC."""
        if node not in self._nic_pools:
            raise KeyError(f"{node.hostname} is not attached")
        del self._nic_pools[node]
        del self.nodes[node.hostname]

    def nic_pool(self, node: SimulatedNode) -> BandwidthPool:
        pool = self._nic_pools.get(node)
        if pool is None:
            raise KeyError(f"{node.hostname} is not attached")
        # NIC degradation faults change the effective rate; reflect lazily.
        pool.capacity = node.nic.effective_rate
        return pool

    # -- flow engine --------------------------------------------------------
    def _advance(self, now: float) -> None:
        for flow in self._flows:
            dt = now - flow.last_update
            if dt > 0:
                flow.remaining = max(flow.remaining - flow.rate * dt, 0.0)
            flow.last_update = now

    def _recompute(self) -> None:
        """Reassign rates and re-arm the next-completion wakeup."""
        now = self.kernel.now
        for flow in self._flows:
            flow.rate = min(pool.share() for pool in flow.pools)
        # Sub-byte residue is float noise from advancing by remaining/rate;
        # counting it as unfinished would compute a wake horizon below the
        # clock's resolution and livelock the waker.
        finished = [f for f in self._flows if f.remaining < 1.0]
        for flow in finished:
            self._finish(flow)
        if finished:
            # Membership changed; shares changed again.
            for flow in self._flows:
                flow.rate = min(pool.share() for pool in flow.pools)
        if not self._flows:
            return
        horizons = [f.remaining / f.rate for f in self._flows if f.rate > 0]
        if not horizons:
            return  # all flows stalled; a membership change will rearm
        horizon = max(min(horizons), 1e-9)
        self._wake_token += 1
        token = self._wake_token

        def _waker():
            yield self.kernel.timeout(horizon)
            if token != self._wake_token:
                return
            self._advance(self.kernel.now)
            self._recompute()

        self.kernel.process(_waker(), name="fabric-waker")

    def _finish(self, flow: Flow) -> None:
        self._flows.discard(flow)
        for pool in flow.pools:
            pool.flows.discard(flow)
        self.bytes_by_tag[flow.tag] = (self.bytes_by_tag.get(flow.tag, 0.0)
                                       + flow.nbytes)
        if not flow.done.triggered:
            flow.done.succeed(flow.nbytes)

    def _start_flow(self, nbytes: float, pools: Sequence[BandwidthPool],
                    tag: str) -> Event:
        done = self.kernel.event()
        if nbytes <= 0:
            done.succeed(0.0)
            return done
        flow = Flow(nbytes, pools, done, tag)
        flow.last_update = self.kernel.now
        self._advance(self.kernel.now)
        self._flows.add(flow)
        for pool in flow.pools:
            pool.flows.add(flow)
        self._recompute()
        return done

    # -- public transfer API ------------------------------------------------
    def unicast(self, src: SimulatedNode, dst: SimulatedNode,
                nbytes: float, *, tag: str = "unicast",
                via_segment: bool = True) -> Event:
        """Transfer ``nbytes`` from ``src`` to ``dst``; fires when delivered.

        The flow crosses the source NIC, optionally the shared segment, and
        the destination NIC; a constant propagation latency is added at the
        end.
        """
        pools: List[BandwidthPool] = [self.nic_pool(src)]
        if via_segment:
            pools.append(self.segment)
        pools.append(self.nic_pool(dst))
        done = self._start_flow(nbytes, pools, tag)
        final = self.kernel.event()

        def _deliver():
            moved = yield done
            yield self.kernel.timeout(self.latency)
            src.nic.credit_tx(int(moved))
            dst.nic.credit_rx(int(moved))
            final.succeed(moved)

        self.kernel.process(_deliver(), name=f"uc:{src.hostname}")
        return final

    def multicast(self, src: SimulatedNode,
                  receivers: Sequence[SimulatedNode], nbytes: float, *,
                  tag: str = "multicast") -> Event:
        """One stream from ``src`` reaching every receiver simultaneously.

        The key property of §4: the stream consumes the sender NIC and the
        shared segment **once**, independent of receiver count.  Fires when
        the stream finishes; all receivers are credited the full byte count.
        """
        pools = [self.nic_pool(src), self.segment]
        done = self._start_flow(nbytes, pools, tag)
        final = self.kernel.event()

        def _deliver():
            moved = yield done
            yield self.kernel.timeout(self.latency)
            src.nic.credit_tx(int(moved))
            for receiver in receivers:
                receiver.nic.credit_rx(int(moved))
            final.succeed(moved)

        self.kernel.process(_deliver(), name=f"mc:{src.hostname}")
        return final

    def message(self, src: SimulatedNode, dst: SimulatedNode,
                nbytes: float, *, tag: str = "message") -> Event:
        """Small-datagram send: latency-dominated, still byte-accounted.

        Used by the monitoring transport where flow setup per sample would
        swamp the event loop; bytes are ledgered against the segment but do
        not contend (monitoring traffic is orders of magnitude below link
        rate — when it is not, use :meth:`unicast`).

        All datagrams of one size due at one instant share one delivery
        timer, and that timer is the returned event: it fires at
        ``now + latency + nbytes / capacity`` with value ``nbytes``, after
        crediting every datagram of the batch in send order — so any
        waiter's callback, and any read once the kernel has drained that
        instant, sees its own bytes (and its batch-mates') credited.
        """
        delay = self.latency + nbytes / self.nic_pool(src).capacity
        # The key carries nbytes because the instant alone does not fix
        # the timer's value: a slower NIC sending fewer bytes can land on
        # the bit-identical instant.  This is the highest-frequency send
        # in the system (every agent sample, a whole cohort per instant).
        key = (self.kernel.now + delay, nbytes)
        batch = self._batches.get(key)
        if batch is None:
            timer = self.kernel.timeout(delay, nbytes)
            timer.callbacks.append(self._deliver_batch)
            batch = self._batches[key] = (timer, [])
        timer, sends = batch
        sends += (src, dst, tag)
        return timer

    def _deliver_batch(self, timer: Event) -> None:
        nbytes = timer.value
        _, sends = self._batches.pop((self.kernel.now, nbytes))
        whole = int(nbytes)
        ledger = self.bytes_by_tag
        each = iter(sends)
        for src, dst, tag in zip(each, each, each):
            src.nic.credit_tx(whole)
            dst.nic.credit_rx(whole)
            ledger[tag] = ledger.get(tag, 0.0) + nbytes

    # -- introspection -----------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def total_bytes(self, tag: Optional[str] = None) -> float:
        if tag is not None:
            return self.bytes_by_tag.get(tag, 0.0)
        return sum(self.bytes_by_tag.values())
