"""The worxlint pass suite.  Importing this package registers every
pass with :mod:`repro.tooling.registry`:

    WORX101  layering        imports respect the layer map; no cycles
    WORX102  determinism     no wall clocks / global RNG in sim code
    WORX103  encapsulation   no reaching into foreign ``_private`` state
    WORX106  handlers        no swallowed exceptions
    WORX201  thread-discipline  cross-thread mutation, guarded state
                             outside its lock, replace-only maps
"""

from repro.tooling.passes import (determinism, encapsulation, handlers,
                                  layering, thread_context)

__all__ = ["determinism", "encapsulation", "handlers", "layering",
           "thread_context"]
