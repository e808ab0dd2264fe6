"""repro.resilience — the self-healing node lifecycle.

The closed loop the paper's monitoring exists to drive (§5.2 "corrective
action", §3 ICE Box control, §4 recloning), split into two pieces:

* :mod:`~repro.resilience.health` — per-node health state machine
  (``healthy -> suspect -> down -> recovering -> healthy|quarantined``)
  fed by monitoring staleness, sweep verdicts and event firings;
* :mod:`~repro.resilience.playbook` /
  :mod:`~repro.resilience.orchestrator` — the escalation ladder (probe,
  ICE reset, power cycle, reclone, quarantine) and the supervisor that
  climbs it on the SimKernel through injected channels, one timed
  attempt per rung.

This package sits at layer 3 of the layer DAG (a control-plane service,
like :mod:`repro.events` and :mod:`repro.remote`); the tier-2 server in
:mod:`repro.core` wires it to the real subsystems.  The fault campaigns
that exercise the loop live at layer 6, in :mod:`repro.faults.campaign`.
"""

from repro.resilience.health import (HealthRecord, HealthState,
                                     HealthTracker, InvalidTransition)
from repro.resilience.orchestrator import (RecoveryChannels,
                                           RecoveryOrchestrator,
                                           RecoveryRecord, RungAttempt)
from repro.resilience.playbook import DEFAULT_PLAYBOOK, RUNG_NAMES, Rung

__all__ = [
    "HealthRecord", "HealthState", "HealthTracker", "InvalidTransition",
    "RecoveryChannels", "RecoveryOrchestrator", "RecoveryRecord",
    "RungAttempt", "DEFAULT_PLAYBOOK", "RUNG_NAMES", "Rung",
]
