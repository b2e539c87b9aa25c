"""The conduit client core and the GASNet-EX conduit.

This is the paper's primary communication substrate: segments
registered into a global address space, non-blocking one-sided ``put``
/ ``get`` returning events, flushes, and active messages for
control-plane bootstrap.  :class:`~repro.gasnet.conduit.ConduitClient`
implements all of it once for both conduits; GASNet-EX
(:class:`~repro.gasnet.conduit.GasnetClient`) and GPI-2
(:mod:`repro.gpi2`) are thin subclasses.  Per-operation software
overheads and protocol bandwidth efficiency are calibration parameters
(:class:`~repro.gasnet.conduit.GasnetParams`, a
:class:`~repro.gasnet.conduit.ConduitParams`), which is how the
GASNet-vs-GPI-2 comparison of Fig. 5 is modelled.
"""

from repro.gasnet.conduit import (
    Conduit,
    ConduitClient,
    ConduitEvent,
    ConduitParams,
    GasnetConduit,
    GasnetClient,
    GasnetParams,
    Segment,
)

__all__ = [
    "Conduit",
    "ConduitClient",
    "ConduitEvent",
    "ConduitParams",
    "GasnetConduit",
    "GasnetClient",
    "GasnetParams",
    "Segment",
]
