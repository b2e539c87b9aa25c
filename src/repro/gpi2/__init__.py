"""GPI-2 (GASPI) communication conduit.

The paper provides a GPI-2 backend as an alternative to GASNet-EX,
valid only on InfiniBand fabrics (§4.1).  :class:`~repro.gpi2.gaspi.Gpi2Client`
is a thin subclass of the conduit core
(:class:`~repro.gasnet.conduit.ConduitClient`), so it has the same
``put_nb``/``get_nb``/``sync_all``/AM interface as
:class:`~repro.gasnet.GasnetClient` and can be swapped in via the
runtime's ``conduit=`` option.  What it adds is GASPI's own: write/read
posted to numbered *queues* (``queue=``, ``wait_queue``), lightweight
*notifications* for remote completion signalling (``notify``,
``notification``), and the InfiniBand-only gate.

Calibration (Fig. 5, :class:`~repro.gpi2.gaspi.Gpi2Params`): GPI-2's
write path has a lower per-op overhead (``put_overhead``) and slightly
better mid-size efficiency than GASNet-EX, while GASNet-EX pipelines
very large transfers marginally better — producing the crossover the
paper measures.
"""

from repro.gasnet.conduit import ConduitEvent
from repro.gpi2.gaspi import Gpi2Conduit, Gpi2Client, Gpi2Params, Notification

__all__ = ["ConduitEvent", "Gpi2Conduit", "Gpi2Client", "Gpi2Params", "Notification"]
