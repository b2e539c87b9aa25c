"""Lowering: one verified plan, three backends.

``lower_plan(plan, backend)`` returns a :class:`LoweredProgram` whose
``run(world)`` executes the plan on every rank of the world:

``"gasnet"`` / ``"gpi2"``
    The DiOMP runtime over the respective conduit.  Symmetric buffers
    become ``ompx_alloc`` allocations, puts/gets go through the
    one-sided RMA path and complete at ``ompx_fence``, notifies use
    ``gaspi_notify`` natively on GPI-2 and an active message on
    GASNet-EX (the next fence waits on either, so a failed notify
    raises there), and ``plan.meta["pointer_prefetch"]`` (set by the
    prefetch pass) enables the runtime's bulk second-level-pointer
    prefetch.
``"mpi"``
    The MPI + OpenMP-target baseline.  Every one-sided op is rewritten
    into its two-sided SPMD mirror: an outgoing ``isend`` where this
    rank's guard holds, paired with an ``irecv`` posted wherever the
    *source* rank's guard holds (``Peer.source`` is the inverse rank
    expression — the verifier's cross-rank matching check is exactly
    the proof that this pairing is total).  Fences become ``Waitall``.

Lowering always verifies the plan first and refuses unsound plans with
:class:`~repro.util.errors.PlanVerificationError`.  Pass statistics
recorded by :func:`repro.plan.passes.optimize_plan` flow into the
world's metrics registry as ``plan.pass.rewrites`` counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdResult, run_spmd
from repro.plan.ir import Access, BufDecl, CommPlan, PlanOp, guard_holds
from repro.plan.verify import check_plan
from repro.util.errors import ConfigurationError

BACKENDS = ("gasnet", "gpi2", "mpi")

#: numpy reduction for CollSpec.op
_REDUCTIONS = {"sum": np.add, "max": np.maximum, "min": np.minimum}


class _Storage:
    """One allocated instance of a declared buffer, backend-agnostic."""

    def __init__(self, handle: Any, decl: BufDecl) -> None:
        self.handle = handle
        self.decl = decl

    def memref(self, offset: int, nbytes: int) -> MemRef:
        h = self.handle
        if hasattr(h, "memref"):  # GlobalBuffer
            return h.memref(offset, nbytes)
        if hasattr(h, "data"):  # AsymmetricBuffer
            return MemRef.device(h.data, offset=offset, nbytes=nbytes)
        return MemRef.device(h, offset=offset, nbytes=nbytes)  # DeviceBuffer

    def array(self, dtype) -> np.ndarray:
        h = self.handle
        if hasattr(h, "local"):  # GlobalBuffer
            return h.local.as_array(dtype)
        if hasattr(h, "data"):  # AsymmetricBuffer
            return h.data.as_array(dtype)
        return h.as_array(dtype)  # DeviceBuffer

    def rma_target(self) -> Any:
        """The handle shape the DiOMP RMA path addresses remotely."""
        return self.handle


class BufMap:
    """Per-rank mapping from plan buffer names to allocated storage."""

    def __init__(self, decls: Dict[str, BufDecl]) -> None:
        self._decls = decls
        self._storages: Dict[str, List[_Storage]] = {}

    def add(self, name: str, storages: List[_Storage]) -> None:
        self._storages[name] = storages

    def storage(self, name: str, rot: int = 0, step: int = 0) -> _Storage:
        decl = self._decls[name]
        return self._storages[name][decl.instance(rot, step)]

    def memref(self, acc: Access, step: int = 0) -> MemRef:
        return self.storage(acc.buf.name, acc.buf.rot, step).memref(
            acc.offset, acc.nbytes
        )

    def array(self, name: str, dtype, rot: int = 0, step: int = 0) -> np.ndarray:
        """Typed numpy view of one buffer instance (execute mode)."""
        return self.storage(name, rot, step).array(dtype)


class LoweredProgram:
    """A plan bound to one backend, ready to run on a world."""

    def __init__(self, plan: CommPlan, backend: str, nranks: int) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown lowering backend {backend!r} (known: {BACKENDS})"
            )
        check_plan(plan, nranks)
        # Canonicalize: halo macros must become concrete puts whether
        # or not the optimization pipeline ran (no-op if it did).
        from repro.plan.passes import expand_halo

        plan, _ = expand_halo(plan)
        self.plan = plan
        self.backend = backend
        self.nranks = nranks

    # -- entry point ------------------------------------------------------

    def run(self, world, runtime=None, mpi=None) -> SpmdResult:
        """Execute the lowered plan on every rank of ``world``."""
        if world.nranks != self.nranks:
            raise ConfigurationError(
                f"plan {self.plan.name!r} was lowered for {self.nranks} "
                f"rank(s) but the world has {world.nranks}"
            )
        self._record_metrics(world)
        if self.backend == "mpi":
            from repro.mpi import MpiWorld

            mpi = mpi or MpiWorld(world)
            return run_spmd(world, self._mpi_program, mpi)
        if runtime is None:
            from repro.core.runtime import DiompParams, DiompRuntime

            runtime = DiompRuntime(
                world,
                DiompParams(
                    conduit=self.backend,
                    segment_size=self._segment_need(),
                    pointer_prefetch=bool(
                        self.plan.meta.get("pointer_prefetch", False)
                    ),
                ),
            )
        return run_spmd(world, self._diomp_program)

    def _segment_need(self) -> int:
        total = sum(b.nbytes * b.count for b in self.plan.buffers)
        return 3 * total + (1 << 20)

    def _record_metrics(self, world) -> None:
        stats = self.plan.meta.get("pass_stats") or {}
        if any(stats.values()):
            counter = world.obs.counter(
                "plan.pass.rewrites", "optimization-pass rewrites by plan/pass"
            )
            for key, val in sorted(stats.items()):
                if val:
                    counter.inc(val, plan=self.plan.name, rewrite=key)
        world.obs.gauge("plan.ops", "op count of the lowered plan").set(
            float(self.plan.op_count()), plan=self.plan.name, backend=self.backend
        )

    # -- shared per-rank helpers ------------------------------------------

    def _execute(self) -> bool:
        return bool(self.plan.meta.get("execute", False))

    def _compute(self, ctx, op: PlanOp, step: int, bufs: BufMap, state) -> None:
        if self._execute() and op.args_fn is not None:
            args = op.args_fn(ctx, bufs, step)
        else:
            args = ()
        stream = None
        if op.stream == "aux":
            if state.aux_stream is None:
                state.aux_stream = ctx.device.create_stream()
            stream = state.aux_stream
        fut = ctx.device.launch(op.kernel, *args, stream=stream, cost_args=())
        if op.sync:
            fut.wait()
        else:
            state.pending[op.op_id] = fut

    def _wait(self, op: PlanOp, state) -> None:
        fut = state.pending.pop(op.waits_for, None)
        if fut is not None:
            fut.wait()

    # -- DiOMP (GASNet-EX / GPI-2) lowering -------------------------------

    def _diomp_program(self, ctx) -> Dict[str, object]:
        plan = self.plan
        diomp = ctx.diomp
        if diomp is None:
            raise ConfigurationError(
                "plan lowering to a conduit needs a DiompRuntime installed"
            )
        execute = self._execute()
        virtual = not execute
        state = _RankState()
        has_notify = any(op.kind == "notify" for _, op in plan.all_ops())
        if has_notify and self.backend == "gasnet":
            diomp.client.register_handler("plan.notify", lambda _src, token: token)

        bufs = BufMap(plan.decls())
        for decl in plan.buffers:
            storages: List[_Storage] = []
            for _ in range(decl.count):
                if decl.kind == "symmetric":
                    handle = diomp.alloc(decl.nbytes, virtual=virtual)
                elif decl.kind == "asymmetric":
                    handle = diomp.alloc_asymmetric(decl.nbytes, virtual=virtual)
                else:
                    handle = diomp.segment(0).alloc_local(
                        decl.nbytes, virtual=virtual, label=decl.name
                    )
                storages.append(_Storage(handle, decl))
            bufs.add(decl.name, storages)
        if execute and plan.init_fn is not None:
            plan.init_fn(ctx, bufs)

        def run_op(op: PlanOp, step: int, steps: int) -> None:
            if op.kind == "fence":
                for fut in state.notify_futures:
                    fut.wait()
                state.notify_futures.clear()
                diomp.fence()
                return
            if op.kind == "barrier":
                diomp.barrier()
                return
            if op.kind == "wait":
                if guard_holds(op.guard, ctx.rank, ctx.nranks, step, steps):
                    self._wait(op, state)
                return
            if not guard_holds(op.guard, ctx.rank, ctx.nranks, step, steps):
                return
            if op.kind == "put":
                peer = op.peer.resolve(ctx.rank, ctx.nranks)
                target = bufs.storage(op.dst.buf.name, op.dst.buf.rot, step)
                diomp.put(
                    peer,
                    target.rma_target(),
                    bufs.memref(op.src, step),
                    target_offset=op.dst.offset,
                )
            elif op.kind == "get":
                peer = op.peer.resolve(ctx.rank, ctx.nranks)
                source = bufs.storage(op.src.buf.name, op.src.buf.rot, step)
                diomp.get(
                    peer,
                    source.rma_target(),
                    bufs.memref(op.dst, step),
                    target_offset=op.src.offset,
                )
            elif op.kind == "notify":
                peer = op.peer.resolve(ctx.rank, ctx.nranks)
                if self.backend == "gpi2":
                    done = diomp.client.notify(peer, op.token)
                else:
                    done = diomp.client.am_request(
                        peer, "plan.notify", op.token, payload_bytes=8
                    )
                state.notify_futures.append(done)
            elif op.kind == "allreduce":
                diomp.allreduce(
                    bufs.memref(op.coll.send, step),
                    bufs.memref(op.coll.recv, step),
                    dtype=op.coll.dtype,
                    op=_REDUCTIONS[op.coll.op],
                    algo=op.algo,
                )
            elif op.kind == "compute":
                self._compute(ctx, op, step, bufs, state)
            elif op.kind == "prefetch":
                pass  # realized at allocation time via pointer_prefetch
            else:  # pragma: no cover - verifier rejects unknown kinds
                raise ConfigurationError(f"cannot lower op kind {op.kind!r}")

        return self._drive(ctx, bufs, run_op)

    # -- MPI baseline lowering --------------------------------------------

    def _mpi_program(self, ctx, mpi) -> Dict[str, object]:
        from repro.mpi import collectives as mpi_coll
        from repro.mpi import waitall
        from repro.omptarget import OmpTargetRuntime

        plan = self.plan
        comm = mpi.comm_world(ctx.rank)
        rt = OmpTargetRuntime(ctx)
        execute = self._execute()
        virtual = not execute
        state = _RankState()
        scratch = None
        if any(op.kind == "notify" for _, op in plan.all_ops()):
            scratch = (
                rt.omp_target_alloc(8, virtual=virtual),
                rt.omp_target_alloc(8, virtual=virtual),
            )

        bufs = BufMap(plan.decls())
        for decl in plan.buffers:
            bufs.add(
                decl.name,
                [
                    _Storage(
                        rt.omp_target_alloc(decl.nbytes, virtual=virtual), decl
                    )
                    for _ in range(decl.count)
                ],
            )
        if execute and plan.init_fn is not None:
            plan.init_fn(ctx, bufs)

        def run_op(op: PlanOp, step: int, steps: int, tag: int = 0) -> None:
            rank, p = ctx.rank, ctx.nranks
            mine = guard_holds(op.guard, rank, p, step, steps)
            if op.kind == "fence":
                waitall(state.requests)
                state.requests.clear()
                return
            if op.kind == "barrier":
                mpi_coll.barrier(comm)
                return
            if op.kind == "wait":
                if mine:
                    self._wait(op, state)
                return
            if op.kind == "put":
                # Two-sided mirror: post the receive for the incoming
                # put first (hand-written apps' Irecv-before-Isend
                # order), then the send for the outgoing one.
                src_rank = op.peer.source(rank, p)
                if src_rank is not None and guard_holds(
                    op.guard, src_rank, p, step, steps
                ):
                    state.requests.append(
                        comm.irecv(bufs.memref(op.dst, step), source=src_rank, tag=tag)
                    )
                if mine:
                    peer = op.peer.resolve(rank, p)
                    state.requests.append(
                        comm.isend(bufs.memref(op.src, step), dest=peer, tag=tag)
                    )
                return
            if op.kind == "get":
                # A get issued here pulls from the peer; two-sided, the
                # peer must send its src range to us.
                if mine:
                    peer = op.peer.resolve(rank, p)
                    state.requests.append(
                        comm.irecv(bufs.memref(op.dst, step), source=peer, tag=tag)
                    )
                requester = op.peer.source(rank, p)
                if requester is not None and guard_holds(
                    op.guard, requester, p, step, steps
                ):
                    state.requests.append(
                        comm.isend(bufs.memref(op.src, step), dest=requester, tag=tag)
                    )
                return
            if op.kind == "notify":
                src_rank = op.peer.source(rank, p)
                if src_rank is not None and guard_holds(
                    op.guard, src_rank, p, step, steps
                ):
                    state.requests.append(
                        comm.irecv(MemRef.device(scratch[1]), source=src_rank, tag=tag)
                    )
                if mine:
                    peer = op.peer.resolve(rank, p)
                    state.requests.append(
                        comm.isend(MemRef.device(scratch[0]), dest=peer, tag=tag)
                    )
                return
            if not mine:
                return
            if op.kind == "allreduce":
                mpi_coll.allreduce(
                    comm,
                    bufs.memref(op.coll.send, step),
                    bufs.memref(op.coll.recv, step),
                    op.coll.dtype,
                    op=_REDUCTIONS[op.coll.op],
                )
            elif op.kind == "compute":
                self._compute(ctx, op, step, bufs, state)
            elif op.kind == "prefetch":
                pass  # no second-level pointers in the MPI baseline
            else:  # pragma: no cover - verifier rejects unknown kinds
                raise ConfigurationError(f"cannot lower op kind {op.kind!r}")

        return self._drive(ctx, bufs, run_op, tagged=True)

    # -- the shared driver -------------------------------------------------

    def _drive(self, ctx, bufs: BufMap, run_op, tagged: bool = False):
        """Prologue, timed body, epilogue; returns the rank result."""
        plan = self.plan

        def section(ops, step: int, steps: int) -> None:
            for idx, op in enumerate(ops):
                if tagged:
                    run_op(op, step, steps, tag=idx)
                else:
                    run_op(op, step, steps)

        section(plan.prologue, 0, 1)
        t0 = ctx.sim.now
        for step in range(plan.steps):
            section(plan.body, step, plan.steps)
        elapsed = ctx.sim.now - t0
        section(plan.epilogue, 0, 1)
        if plan.finish_fn is not None:
            return plan.finish_fn(ctx, bufs, elapsed)
        return {"elapsed": elapsed, "rank": ctx.rank}


class _RankState:
    """Mutable per-rank execution state."""

    def __init__(self) -> None:
        self.pending: Dict[str, Any] = {}
        self.requests: List[Any] = []
        #: completions of notifies since the last fence, which waits
        #: on them (GPI-2 notifies and GASNet-EX active messages)
        self.notify_futures: List[Any] = []
        self.aux_stream: Optional[Any] = None


def lower_plan(plan: CommPlan, backend: str, nranks: int) -> LoweredProgram:
    """Verify ``plan`` and bind it to ``backend`` for ``nranks`` ranks."""
    return LoweredProgram(plan, backend, nranks)
