"""repro — a reproduction of "ClusterWorX: A Framework to Manage Large
Clusters Effectively" (Warschko, IPPS 2003).

The package rebuilds the paper's full stack on a deterministic simulated
cluster substrate:

* :mod:`repro.sim` — discrete-event kernel everything runs on
* :mod:`repro.hardware` — node component models + faults + workloads
* :mod:`repro.procfs` — simulated /proc with kernel-faithful regeneration
* :mod:`repro.network` — flow-level fabric, multicast, interconnects
* :mod:`repro.icebox` — power/probes/serial/protocols (§3)
* :mod:`repro.firmware` — LinuxBIOS vs legacy BIOS, remote flash (§2)
* :mod:`repro.imaging` — images + reliable multicast cloning (§4)
* :mod:`repro.monitoring` — gather/consolidate/transmit pipeline (§5.1/5.3)
* :mod:`repro.events` — thresholds, actions, smart notification (§5.2)
* :mod:`repro.remote` — NodeSet algebra + parallel fan-out engine
* :mod:`repro.resilience` — health state machine, recovery playbooks,
  chaos campaigns
* :mod:`repro.core` — the 3-tier server and the :class:`ClusterWorX` facade
* :mod:`repro.slurm` — the SLURM-lite resource manager of §6

Entry point for most users::

    from repro import ClusterWorX
"""

from repro.core.api import ClusterWorX
# Importing the federation package registers its "federation" builder
# with the facade's topology registry (core never imports upward).
from repro.federation import FederationServer

__version__ = "1.0.0"

__all__ = ["ClusterWorX", "FederationServer", "__version__"]
