"""Monitoring: gathering, consolidation, transmission, history (§5.1, §5.3)."""

from repro.monitoring.agent import PER_SAMPLE_CPU_SECONDS, NodeAgent
from repro.monitoring.consolidation import Consolidator
from repro.monitoring.gathering import (
    GATHER_PATHS,
    AprioriGatherer,
    BufferedGatherer,
    BytesPersistentGatherer,
    Gatherer,
    NaiveGatherer,
    PersistentGatherer,
    make_gatherer,
    parse_apriori,
    parse_generic,
)
from repro.monitoring.history import HistoryStore
from repro.monitoring.monitors import (
    Monitor,
    MonitorContext,
    MonitorRegistry,
    builtin_registry,
)
from repro.monitoring.plugins import (
    PluginError,
    ScriptMonitor,
    load_plugin_dir,
    register_function,
)
from repro.monitoring.records import Sample, Update
from repro.monitoring.transmission import (
    BinaryCodec,
    TextCodec,
    Transmitter,
)

__all__ = [
    "AprioriGatherer",
    "BinaryCodec",
    "BufferedGatherer",
    "BytesPersistentGatherer",
    "Consolidator",
    "GATHER_PATHS",
    "Gatherer",
    "HistoryStore",
    "Monitor",
    "MonitorContext",
    "MonitorRegistry",
    "NaiveGatherer",
    "NodeAgent",
    "PER_SAMPLE_CPU_SECONDS",
    "PersistentGatherer",
    "PluginError",
    "Sample",
    "ScriptMonitor",
    "TextCodec",
    "Transmitter",
    "Update",
    "builtin_registry",
    "load_plugin_dir",
    "make_gatherer",
    "parse_apriori",
    "parse_generic",
    "register_function",
]
