"""``repro.faults`` — deterministic control-plane fault injection.

The node-level fault story lives in :mod:`repro.hardware.faults` (dead
fans, flaky DIMMs) and is exercised by
:class:`~repro.resilience.chaos.ChaosCampaign`.  This package is the
same idea one level up: faults against the *control plane itself* —
shard servers dying, federation<->shard links partitioning, the
gateway's snapshot publication stalling — driven by the sim clock and
a seeded RNG, so every campaign replays byte-identically.

==========  =========================================================
module       contents
==========  =========================================================
plane        :class:`FaultPlane` — schedules the switch flips on the
             kernel (shard kill, shard outage, pub-stall)
campaign     :class:`ControlPlan` — the ``control_plane`` hook for
             :class:`~repro.resilience.chaos.ChaosCampaign`: draws
             victims, schedules via the plane, scores the outcomes
==========  =========================================================
"""

from repro.faults.campaign import ControlPlan
from repro.faults.plane import (CONTROL_KINDS, FaultPlane, LINK_DOWN,
                                PUBLISH_STALL, SHARD_HANG, SHARD_KILL,
                                SHARD_SLOW)

__all__ = ["FaultPlane", "ControlPlan", "SHARD_KILL", "SHARD_HANG",
           "SHARD_SLOW", "LINK_DOWN", "PUBLISH_STALL", "CONTROL_KINDS"]
