"""Named deterministic random streams.

Every stochastic component in the simulation (thermal jitter on a node,
packet loss on a link, job arrival times) draws from its *own* named child
stream of a single root seed.  This keeps experiments reproducible and —
crucially for ablations — means that changing one component's consumption of
randomness does not perturb any other component's draws.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "RESERVED_STREAMS"]

#: Streams with a repo-wide reserved meaning.  Components must draw from
#: their own entry so that adding consumers to one subsystem never
#: perturbs another's schedule; new subsystems register here.
RESERVED_STREAMS: Dict[str, str] = {
    "faults": "hardware fault injection (repro.hardware.faults)",
    "clone": "multicast cloning repair phase (repro.imaging)",
    "remote": "fan-out engine latency + retry jitter (repro.remote)",
    "chaos": "chaos-campaign fault plans, node faults then shard faults "
             "(repro.faults.campaign)",
}


class RandomStreams:
    """Factory of named, independent ``numpy.random.Generator`` streams.

    The stream for a name is derived from ``(root_seed, crc32(name))`` via
    :class:`numpy.random.SeedSequence`, so the mapping name -> stream is a
    pure function of the root seed and is stable across runs, Python
    versions, and insertion order.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoized) generator for ``name``.

        Reserved subsystem streams (see :data:`RESERVED_STREAMS`) resolve
        through exactly the same derivation — the registry only documents
        ownership, it does not change the mapping.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed,
                                         spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def __call__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def fork(self, salt: str) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per experiment)."""
        child_seed = zlib.crc32(salt.encode("utf-8")) ^ (self.seed * 2654435761 % 2**32)
        return RandomStreams(seed=child_seed)
