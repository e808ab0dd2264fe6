"""``repro.faults`` — deterministic fault injection and chaos campaigns.

The node-level faults live in :mod:`repro.hardware.faults` (dead fans,
flaky DIMMs); this package adds faults against the *control plane
itself* — shard servers dying, federation<->shard links partitioning,
the gateway's snapshot publication stalling — and the campaign that
draws both kinds against a live cluster and scores how the self-healing
loop of :mod:`repro.resilience` dealt with each.  Everything is driven
by the sim clock and a seeded RNG, so every campaign replays
byte-identically.

==========  =========================================================
module       contents
==========  =========================================================
plane        :class:`FaultPlane` — schedules the switch flips on the
             kernel (shard kill, shard outage, pub-stall)
campaign     :class:`ChaosCampaign` — one seeded draw of node faults,
             then shard faults through its own plane; every fault
             scored from its subject's health record into one
             :class:`FaultOutcome` row of a :class:`CampaignReport`
invariants   the system's invariants, one function each
==========  =========================================================
"""

from repro.faults.campaign import CampaignReport, ChaosCampaign, FaultOutcome
from repro.faults.plane import (CONTROL_KINDS, FaultPlane, LINK_DOWN,
                                PUBLISH_STALL, SHARD_HANG, SHARD_KILL,
                                SHARD_SLOW)

__all__ = ["ChaosCampaign", "CampaignReport", "FaultOutcome", "FaultPlane",
           "SHARD_KILL", "SHARD_HANG", "SHARD_SLOW", "LINK_DOWN",
           "PUBLISH_STALL", "CONTROL_KINDS"]
