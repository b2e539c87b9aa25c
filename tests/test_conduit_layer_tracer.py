"""The benchmark's layer tracer counts every conduit entry point once.

``perfbench/layers.py`` wraps conduit methods through each client
class's own ``__dict__``.  A method that moves into a shared base class
drops out of that table, and a wrapped method that calls another
wrapped one is counted twice; either breaks the benchmark's exact
per-layer counts, so this checks them on a small world per conduit.
"""

import importlib.util
import pathlib

import numpy as np

from repro.cluster import MemRef, World, run_spmd
from repro.gasnet import GasnetConduit
from repro.gasnet.conduit import GasnetClient
from repro.gpi2 import Gpi2Conduit
from repro.gpi2.gaspi import Gpi2Client
from repro.hardware import platform_c
from repro.util.units import KiB

_LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

_WRAPPED = {
    GasnetClient: (
        "put_nb", "get_nb", "put_batch_nb", "get_batch_nb", "am_request",
        "attach_segment", "attach_space_segment",
    ),
    Gpi2Client: (
        "put_nb", "get_nb", "put_batch_nb", "get_batch_nb", "am_request",
        "notify", "attach_segment", "attach_space_segment",
    ),
}


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_of_each(conduit_cls):
    """One put, one get and one AM from rank 0 to rank 1 (plus one
    notify on GPI-2) on a two-node world."""
    w = World(platform_c(), num_nodes=2, ranks_per_node=1)
    conduit = conduit_cls(w)
    bufs = []
    for ctx in w.ranks:
        buf = ctx.device.malloc(1 * KiB)
        conduit.client(ctx.rank).attach_segment(MemRef.device(buf))
        bufs.append(buf)
    out = {}

    def prog(ctx):
        client = conduit.client(ctx.rank)
        client.register_handler("echo", lambda _src, x: x)
        ctx.world.global_barrier.wait()
        if ctx.rank == 0:
            local = ctx.device.malloc(64)
            local.as_array(np.uint8)[:] = 5
            client.put_nb(1, bufs[1].address, MemRef.device(local)).wait()
            back = ctx.device.malloc(64)
            client.get_nb(1, bufs[1].address, MemRef.device(back)).wait()
            out["data"] = int(back.as_array(np.uint8)[0])
            out["reply"] = client.am_request(1, "echo", 7).wait()
            if conduit_cls is Gpi2Conduit:
                client.notify(1, 3)
        elif conduit_cls is Gpi2Conduit:
            out["notified"] = client.notification(3).wait()
        ctx.world.global_barrier.wait()

    run_spmd(w, prog)
    return out


def test_layer_tracer_counts_each_conduit_call_once():
    layers = _load_layers()
    originals = {
        (cls, attr): cls.__dict__[attr]
        for cls, attrs in _WRAPPED.items()
        for attr in attrs
    }
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        gasnet = _one_of_each(GasnetConduit)
        gpi2 = _one_of_each(Gpi2Conduit)
    finally:
        tracer.uninstall()

    assert gasnet == {"data": 5, "reply": 7}
    assert gpi2 == {"data": 5, "reply": 7, "notified": 1}
    assert tracer.calls("conduit.put_nb") == 2
    assert tracer.calls("conduit.get_nb") == 2
    assert tracer.calls("conduit.am") == 2
    assert tracer.calls("conduit.notify") == 1
    assert tracer.calls("conduit.attach") == 4
    for (cls, attr), fn in originals.items():
        assert cls.__dict__[attr] is fn, (cls, attr)
