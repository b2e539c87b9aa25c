"""Golden exports: the telemetry a seeded run writes, byte for byte.

Each digest below is the SHA-256 of one export of a small deterministic
run.  They pin the observable output of the observability layer (span
records, causal links, rendezvous linking, metric series, span-store
sampling) so that work on its hot paths can be checked to change
nothing a user reads:

* ``chrome`` — the Chrome trace (spans, flow arrows, tracer instants);
* ``events`` — the tracer's events JSONL;
* ``spans`` — every span record's ``to_dict`` as JSONL (the spill form);
* ``metrics`` — the metric snapshot without the host-time ``sim.*``
  engine gauges;
* ``kept`` — the span ids a full span store keeps under
  :data:`BUDGET`, in iteration order;
* ``unordered`` — the span records with the order they were opened in
  factored out (see :func:`unordered_span_digest`), so a change that only
  reorders same-instant work keeps it.

The scenarios are a seeded one-sided put/get run on 2 nodes x 4 ranks
and a 64-rank analytic allreduce plus barriers, the latter also with
the rendezvous linking forced into its chain mode.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import World, run_spmd
from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdConfig, TelemetryConfig
from repro.core import DiompRuntime
from repro.hardware import platform_a
from repro.obs.export import chrome_trace, events_jsonl
from repro.obs.sampling import SpanBudget
from repro.util.units import KiB

#: a 128-span store: both scenarios overflow it and sample
BUDGET = SpanBudget(max_bytes=64 * KiB, per_track_head=1, per_track_reservoir=4)

RMA_SEED = 20
RMA_OPS = 24
RMA_FENCE_EVERY = 4
RMA_STRIPE = RMA_FENCE_EVERY * 4 * KiB


def _rma_plan(nranks):
    """Per rank: (is_put, target, nbytes, offset) tuples, race-free
    (each source writes only its own stripe of a target)."""
    rng = np.random.default_rng(RMA_SEED)
    plan = []
    for rank in range(nranks):
        ops = []
        for i in range(RMA_OPS):
            slot = i % RMA_FENCE_EVERY
            target = int(rng.integers(0, nranks - 1))
            target += target >= rank
            nbytes = 8 << int(rng.integers(0, 10))
            ops.append((bool(rng.integers(0, 2)), target, nbytes, slot * 4 * KiB))
        plan.append(ops)
    return plan


def _rma_run(budget=None):
    world = World(platform_a(), num_nodes=2)
    DiompRuntime(world)
    plan = _rma_plan(world.nranks)

    def prog(ctx):
        d = ctx.diomp
        buf = d.alloc(world.nranks * RMA_STRIPE)
        local = d.segment(0).alloc_local(RMA_STRIPE, label="src")
        d.barrier()
        for i, (is_put, target, nbytes, off) in enumerate(plan[ctx.rank]):
            ref = MemRef.device(local, off, nbytes)
            if is_put:
                d.put(target, buf, ref, ctx.rank * RMA_STRIPE + off)
            else:
                d.get(target, buf, ref, off)
            if (i + 1) % RMA_FENCE_EVERY == 0:
                d.fence()
        d.barrier()

    config = SpmdConfig(telemetry=TelemetryConfig(span_budget=budget))
    run_spmd(world, prog, config=config)
    return world


def _coll_run(budget=None, dense_limit=None):
    world = World(platform_a(), num_nodes=16)
    DiompRuntime(world)
    if dense_limit is not None:
        world.obs.rendezvous_dense_limit = dense_limit

    def prog(ctx):
        d = ctx.diomp
        send = d.alloc(16 * KiB)
        recv = d.alloc(16 * KiB)
        d.barrier()
        d.allreduce(send, recv)
        d.barrier()

    config = SpmdConfig(analytic=True, telemetry=TelemetryConfig(span_budget=budget))
    run_spmd(world, prog, config=config)
    return world


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics_without_engine(snapshot):
    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {
            name: entry
            for name, entry in snapshot[kind].items()
            if not name.startswith("sim.")
        }
    return snapshot


def export_digests(world):
    """Digests of every export of one finished world."""
    spans = world.obs.spans
    metrics = _metrics_without_engine(world.obs.snapshot())
    return {
        "chrome": _sha(json.dumps(chrome_trace(spans, world.tracer), sort_keys=True)),
        "events": _sha(events_jsonl(world.tracer)),
        "spans": _sha("\n".join(json.dumps(r.to_dict()) for r in spans)),
        "metrics": _sha(json.dumps(metrics, sort_keys=True)),
    }


def kept_digest(world):
    return _sha(json.dumps([r.span_id for r in world.obs.spans]))


def unordered_span_digest(world):
    """Digest of the span records that ignores the order spans were
    opened in: span ids become ``(track, name, start, end)`` keys, links
    become sorted sets of keys, and the records are sorted."""
    spans = list(world.obs.spans)
    key = {r.span_id: (r.track, r.name, r.start, r.end) for r in spans}
    docs = sorted(
        json.dumps(
            [
                key[r.span_id],
                r.depth,
                sorted((k, str(v)) for k, v in r.args.items()),
                key.get(r.parent_id),
                sorted({key[link] for link in r.links if link in key}),
            ]
        )
        for r in spans
    )
    return _sha("\n".join(docs))


SCENARIOS = {
    "rma": lambda: export_digests(_rma_run()),
    "coll": lambda: export_digests(_coll_run()),
    "coll-chain": lambda: export_digests(_coll_run(dense_limit=8)),
    "rma-kept": lambda: kept_digest(_rma_run(BUDGET)),
    "coll-kept": lambda: kept_digest(_coll_run(BUDGET)),
    "rma-unordered": lambda: unordered_span_digest(_rma_run()),
    "coll-unordered": lambda: unordered_span_digest(_coll_run()),
}

#: digests of the exports above, taken before the observability hot
#: paths were reworked.  The ``coll`` span-order digests (``chrome``,
#: ``spans``, ``coll-kept``) were re-pinned when XCCL collectives moved
#: onto ``repro.sim.Rendezvous``, whose last arrival resumes first: the
#: ``*-unordered`` digests, unchanged by that move, show the same spans,
#: times and links were recorded in a different order
GOLDEN = {
    "coll": {
        "chrome": "72d1b6f984579733a05749993685128a7d2c723618f77e180b805a7181a0baf0",
        "events": "0df88031e88252bc3c50aaea8a7571f44f957bde06d9216e7e204ce75182505e",
        "spans": "7a44249885dc90ed013b4c18a616ea937abbdaa27ba740704e64831ab772e190",
        "metrics": "0a9e8ef2389f185615fd0dfe525d91590c8f1a53e89abd562faa938332e02781",
    },
    "coll-chain": {
        "chrome": "370c58582fd8a1e3db8dfeb844e15aa4955d31f5494f48bf81cfc03a46449dec",
        "events": "0df88031e88252bc3c50aaea8a7571f44f957bde06d9216e7e204ce75182505e",
        "spans": "ec765934ae5adf34acc9d3b530d48adc3921e73156352fa3c5d693ad2c7d4118",
        "metrics": "0a9e8ef2389f185615fd0dfe525d91590c8f1a53e89abd562faa938332e02781",
    },
    "coll-kept": "87a713a737d8623baa2c1300e4547de97a334b96a36928a2e2e02e3f43f1f837",
    "rma": {
        "chrome": "56a2c7df6961d44617a3df38663cc0f30c3376242eafbd7eda429faa33bae7ca",
        "events": "836634ab1082f776d599d93e37ff8b78db462ab94fe7bb95c543d3d5cf3b22ed",
        "spans": "7d7e3d9612985cd5f679f828ccc108327a45a519bff5307145f3b94b0ed46a60",
        "metrics": "fee70808162a1ac1bdfc7d40b6a5a042f6f43f18a4f63a94fa2f76b5688f9b6e",
    },
    "rma-kept": "94044d52d946d4e9e11744a397d5c2dbf31947154f8e257a084aa0f4b4e75387",
    "coll-unordered": "c872b5095aac16dbc8543d24ccce1a71f77a5a1feaa5ff9cd25a0099dbb2b0a5",
    "rma-unordered": "a91c9a8b69568aea5df585cf0860d698245a7d5d84589954bb76213220445f46",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exports_match_golden(scenario):
    assert SCENARIOS[scenario]() == GOLDEN[scenario]


if __name__ == "__main__":  # print the current digests
    print(json.dumps({name: SCENARIOS[name]() for name in sorted(SCENARIOS)}, indent=4))
