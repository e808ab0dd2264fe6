"""Middle layer."""

from acme.mid.clock import tick

__all__ = ["tick"]
