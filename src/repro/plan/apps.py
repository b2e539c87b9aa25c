"""Cannon and Minimod expressed as communication plans.

The builders here produce *naive* plans — the most direct declarative
transcription of the hand-written loops (one halo macro, synchronous
kernels, no overlap).  :func:`repro.plan.passes.optimize_plan` then
derives mechanically what the hand-written variants encode by hand:

* Cannon — the optimizer hoists the GEMM above the stripe forward and
  makes it asynchronous, reproducing the overlapped loop of
  :func:`repro.apps.cannon.cannon_diomp` (same put, same fence, same
  barrier; the wait lands at the latest legal slot).
* Minimod — the halo macro expands to per-plane puts, coalesces back
  to one contiguous put per neighbour, and the interior/boundary
  leapfrog kernels are scheduled exactly like
  :func:`repro.apps.minimod.minimod_diomp_overlap`.

Numerics are bit-identical to the hand-written paths on every backend:
the plan kernels are the same :class:`~repro.device.kernel.Kernel`
objects.  Each leapfrog slab update computes the Laplacian of its own
planes only, reading exactly the planes its ``reads=`` declare; the
sliced Laplacian accumulates every element in the same order as the
full-field one, so the slab updates, the in-place stencil and even the
naive plan path match bitwise.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.cannon import CannonConfig, _gemm_kernel, _init_stripe
from repro.apps.minimod import (
    MinimodConfig,
    _field_shape,
    _field_bytes,
    _initial_slab,
    _leapfrog_kernel,
    _plane_offset,
)
from repro.cluster.spmd import SpmdResult
from repro.plan.ir import (
    NOT_FIRST_RANK,
    NOT_LAST_RANK,
    NOT_LAST_STEP,
    Access,
    BufDecl,
    BufRef,
    CommPlan,
    HaloSide,
    HaloSpec,
    Peer,
    PlanOp,
)
from repro.plan.lower import lower_plan
from repro.plan.passes import optimize_plan
from repro.util.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Cannon
# ---------------------------------------------------------------------------


def cannon_plan(cfg: CannonConfig, nranks: int) -> CommPlan:
    """The declarative form of the Cannon ring loop."""
    p = nranks
    ns = cfg.stripe(p)
    stripe_bytes = ns * cfg.n * cfg.itemsize
    kernel = _gemm_kernel(cfg, ns)

    a_full = Access(BufRef("A"), 0, stripe_bytes)
    b_cur = Access(BufRef("B", 0), 0, stripe_bytes)
    b_nxt = Access(BufRef("B", 1), 0, stripe_bytes)
    c_full = Access(BufRef("C"), 0, stripe_bytes)

    def args_fn(ctx, bufs, step):
        owner = (ctx.rank + step) % p
        a_stripe = bufs.array("A", cfg.dtype).reshape(ns, cfg.n)
        return (
            np.ascontiguousarray(a_stripe[:, owner * ns : (owner + 1) * ns]),
            bufs.array("B", cfg.dtype, rot=0, step=step).reshape(ns, cfg.n),
            bufs.array("C", cfg.dtype).reshape(ns, cfg.n),
        )

    def init_fn(ctx, bufs):
        bufs.array("A", cfg.dtype)[:] = _init_stripe(cfg, ctx.rank, p, "A").reshape(-1)
        bufs.array("B", cfg.dtype, rot=0, step=0)[:] = _init_stripe(
            cfg, ctx.rank, p, "B"
        ).reshape(-1)

    def finish_fn(ctx, bufs, elapsed) -> Dict[str, object]:
        out: Dict[str, object] = {"elapsed": elapsed, "rank": ctx.rank}
        if cfg.execute:
            out["C"] = bufs.array("C", cfg.dtype).reshape(ns, cfg.n).copy()
        return out

    return CommPlan(
        name="cannon",
        steps=cfg.ring_steps(p),
        buffers=(
            BufDecl("B", stripe_bytes, kind="symmetric", count=2, rotating=True),
            BufDecl("A", stripe_bytes, kind="local"),
            BufDecl("C", stripe_bytes, kind="local"),
        ),
        prologue=(PlanOp(op_id="init-bar", kind="barrier"),),
        body=(
            PlanOp(
                op_id="fwd",
                kind="put",
                guard=NOT_LAST_STEP,
                peer=Peer(-1),
                src=b_cur,
                dst=b_nxt,
            ),
            PlanOp(op_id="fence", kind="fence", after=("fwd",)),
            PlanOp(
                op_id="gemm",
                kind="compute",
                kernel=kernel,
                args_fn=args_fn,
                reads=(a_full, b_cur, c_full),
                writes=(c_full,),
            ),
            PlanOp(op_id="bar", kind="barrier"),
        ),
        epilogue=(PlanOp(op_id="final-bar", kind="barrier"),),
        init_fn=init_fn,
        finish_fn=finish_fn,
        meta={"execute": cfg.execute, "app": "cannon", "n": cfg.n},
    )


# ---------------------------------------------------------------------------
# Minimod
# ---------------------------------------------------------------------------


def minimod_plan(cfg: MinimodConfig, nranks: int) -> CommPlan:
    """The declarative form of the Minimod halo-exchange loop."""
    p = nranks
    lnx = cfg.local_nx(p)
    r = cfg.radius
    field_bytes = _field_bytes(cfg, lnx)
    plane = cfg.plane_elems * cfg.itemsize
    shape = _field_shape(cfg, lnx)

    def off(i: int) -> int:
        return _plane_offset(cfg, i)

    def rd(rot: int, lo_plane: int, hi_plane: int) -> Access:
        return Access(BufRef("U", rot), off(lo_plane), off(hi_plane) - off(lo_plane))

    def args_fn(ctx, bufs, step):
        return (
            bufs.array("U", cfg.dtype, rot=0, step=step).reshape(shape),
            bufs.array("U", cfg.dtype, rot=1, step=step).reshape(shape),
        )

    def compute(op_id: str, lo: int, hi: int) -> PlanOp:
        # A leapfrog update of core planes [lo, hi): the result depends
        # on u planes [lo, hi + 2r) of the padded field and on prev
        # planes [lo + r, hi + r); it writes the latter range.
        return PlanOp(
            op_id=op_id,
            kind="compute",
            kernel=_leapfrog_kernel(cfg, lo, hi),
            args_fn=args_fn,
            reads=(rd(0, lo, hi + 2 * r), rd(1, lo + r, hi + r)),
            writes=(rd(1, lo + r, hi + r),),
        )

    if lnx > 2 * r:
        kernels = (
            compute("interior", r, lnx - r),
            compute("left-slab", 0, r),
            compute("right-slab", lnx - r, lnx),
        )
    else:
        kernels = (compute("full-slab", 0, lnx),)

    def init_fn(ctx, bufs):
        slab = _initial_slab(cfg, ctx.rank, p)
        for rot in (0, 1):
            view = bufs.array("U", cfg.dtype, rot=rot, step=0).reshape(shape)
            view[r : r + lnx] = slab

    def finish_fn(ctx, bufs, elapsed) -> Dict[str, object]:
        out: Dict[str, object] = {"elapsed": elapsed, "rank": ctx.rank}
        if cfg.execute:
            view = bufs.array("U", cfg.dtype, rot=0, step=cfg.steps).reshape(shape)
            out["u"] = view[r : r + lnx].copy()
        return out

    return CommPlan(
        name="minimod",
        steps=cfg.steps,
        buffers=(
            BufDecl("U", field_bytes, kind="symmetric", count=2, rotating=True),
        ),
        prologue=(PlanOp(op_id="init-bar", kind="barrier"),),
        body=(
            PlanOp(
                op_id="halo",
                kind="halo",
                halo=HaloSpec(
                    buf=BufRef("U", 0),
                    nplanes=r,
                    plane_bytes=plane,
                    sides=(
                        HaloSide(
                            peer=Peer(-1, wrap=False),
                            guard=NOT_FIRST_RANK,
                            src_offset=off(r),
                            dst_offset=off(r + lnx),
                        ),
                        HaloSide(
                            peer=Peer(+1, wrap=False),
                            guard=NOT_LAST_RANK,
                            src_offset=off(lnx),
                            dst_offset=off(0),
                        ),
                    ),
                ),
            ),
            PlanOp(op_id="fence", kind="fence", after=("halo",)),
            PlanOp(op_id="halo-bar", kind="barrier"),
        )
        + kernels
        + (PlanOp(op_id="bar", kind="barrier"),),
        epilogue=(PlanOp(op_id="final-bar", kind="barrier"),),
        init_fn=init_fn,
        finish_fn=finish_fn,
        meta={
            "execute": cfg.execute,
            "app": "minimod",
            "grid": (cfg.nx, cfg.ny, cfg.nz),
        },
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def build_plan(app: str, cfg, nranks: int) -> CommPlan:
    """Build the named application plan ("cannon" | "minimod")."""
    if app == "cannon":
        return cannon_plan(cfg, nranks)
    if app == "minimod":
        return minimod_plan(cfg, nranks)
    raise ConfigurationError(f"unknown plan application {app!r}")


def run_cannon_plan(
    world,
    cfg: CannonConfig,
    backend: str = "gasnet",
    optimize: bool = True,
    runtime=None,
    mpi=None,
) -> SpmdResult:
    """Lower and run the (optionally optimized) Cannon plan."""
    plan = cannon_plan(cfg, world.nranks)
    if optimize:
        plan, _stats = optimize_plan(plan, world=world)
    return lower_plan(plan, backend, world.nranks).run(world, runtime=runtime, mpi=mpi)


def run_minimod_plan(
    world,
    cfg: MinimodConfig,
    backend: str = "gasnet",
    optimize: bool = True,
    runtime=None,
    mpi=None,
) -> SpmdResult:
    """Lower and run the (optionally optimized) Minimod plan."""
    plan = minimod_plan(cfg, world.nranks)
    if optimize:
        plan, _stats = optimize_plan(plan, world=world)
    return lower_plan(plan, backend, world.nranks).run(world, runtime=runtime, mpi=mpi)


_DEFAULT_CANNON = dict(n=4096, execute=False)
_DEFAULT_MINIMOD = dict(nx=256, ny=64, nz=64, steps=8, execute=False)


def default_config(app: str):
    """The CLI's default problem configuration for ``app``."""
    if app == "cannon":
        return CannonConfig(**_DEFAULT_CANNON)
    if app == "minimod":
        return MinimodConfig(**_DEFAULT_MINIMOD)
    raise ConfigurationError(f"unknown plan application {app!r}")
