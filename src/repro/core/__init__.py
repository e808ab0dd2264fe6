"""ClusterWorX core: cluster model, 3-tier server, clients, facade.

Exports resolve lazily (PEP 562) so low-level layers — the monitoring
agent in particular — can import :mod:`repro.core.statestore`'s typed
values without dragging the whole server stack (and an import cycle)
behind them.
"""

from typing import TYPE_CHECKING

__all__ = [
    "AuthError",
    "AuthManager",
    "ClientSession",
    "Cluster",
    "ClusterWorX",
    "ClusterWorXServer",
    "Role",
    "Sample",
    "Snapshot",
    "StateStore",
    "Subscription",
    "Update",
    "chart",
    "connect",
    "node_comparison",
    "register_topology",
    "sparkline",
]

_LOCATIONS = {
    "AuthError": "repro.core.auth",
    "AuthManager": "repro.core.auth",
    "ClientSession": "repro.core.client",
    "Cluster": "repro.core.cluster",
    "ClusterWorX": "repro.core.api",
    "ClusterWorXServer": "repro.core.server",
    "Role": "repro.core.auth",
    "Sample": "repro.core.statestore",
    "Snapshot": "repro.core.statestore",
    "StateStore": "repro.core.statestore",
    "Subscription": "repro.core.statestore",
    "Update": "repro.core.statestore",
    "chart": "repro.core.graphing",
    "connect": "repro.core.client",
    "node_comparison": "repro.core.graphing",
    "register_topology": "repro.core.api",
    "sparkline": "repro.core.graphing",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core.api import ClusterWorX, register_topology
    from repro.core.auth import AuthError, AuthManager, Role
    from repro.core.client import ClientSession, connect
    from repro.core.cluster import Cluster
    from repro.core.graphing import chart, node_comparison, sparkline
    from repro.core.server import ClusterWorXServer
    from repro.core.statestore import (Sample, Snapshot, StateStore,
                                       Subscription, Update)


def __getattr__(name):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(__all__)
