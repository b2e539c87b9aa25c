"""Minimod: acoustic-isotropic finite-difference proxy app (§4.5, Fig. 8).

Minimod propagates a wavefield by solving the second-order acoustic
wave equation with a high-order (radius-4, i.e. 8th-order) stencil:

    ``u_next = 2 u - u_prev + (c dt)^2 * Laplacian(u)``

The domain (``nx x ny x nz``) is decomposed 1-D along x; each step
exchanges ``radius`` halo planes with each x-neighbour, then applies
the stencil to the interior.

The **DiOMP variant** is the paper's Listing 1: each rank pushes its
boundary planes into its neighbours' halo slots with ``ompx_put``
(device-to-device) followed by one ``ompx_fence`` — about half the
code of the MPI variant (Listing 2), which posts Isend/Irecv pairs on
``use_device_ptr`` addresses and waits on all four requests.

``execute=True`` runs the real stencil (small grids, verified against
a single-rank reference); ``execute=False`` models paper scale
(1200^3, 1000 steps) with virtual memory and the stencil cost model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdResult, run_spmd
from repro.cluster.world import RankContext, World
from repro.core.runtime import DiompRuntime
from repro.device.kernel import Kernel, stencil_cost
from repro.mpi import MpiWorld, waitall
from repro.mpi import collectives as mpi_coll
from repro.util.errors import ConfigurationError

#: radius-4 second-derivative coefficients (standard 8th-order FD)
_COEFFS = np.array(
    [-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0]
)


@dataclasses.dataclass(frozen=True)
class MinimodConfig:
    """Problem configuration."""

    nx: int
    ny: int
    nz: int
    steps: int
    execute: bool = True
    radius: int = 4
    #: Courant factor (c*dt/dx)^2 — stability requires a small value
    courant2: float = 0.1
    dtype: type = np.float32

    def __post_init__(self) -> None:
        if not 1 <= self.radius < len(_COEFFS):
            raise ConfigurationError(
                f"radius={self.radius} must be in 1..{len(_COEFFS) - 1}: "
                f"the stencil has coefficients up to radius {len(_COEFFS) - 1}"
            )

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    def local_nx(self, nranks: int) -> int:
        if self.nx % nranks:
            raise ConfigurationError(f"nx={self.nx} must divide by {nranks} ranks")
        lnx = self.nx // nranks
        if lnx < self.radius:
            raise ConfigurationError(
                f"local slab of {lnx} planes is thinner than the stencil "
                f"radius {self.radius}"
            )
        return lnx

    @property
    def plane_elems(self) -> int:
        return self.ny * self.nz

    def halo_bytes(self) -> int:
        return self.radius * self.plane_elems * self.itemsize


def _initial_slab(cfg: MinimodConfig, rank: int, nranks: int) -> np.ndarray:
    """Rank ``rank``'s core planes of the deterministic point-source
    initial field; only those planes are built."""
    lnx = cfg.local_nx(nranks)
    x0 = rank * lnx
    u = np.zeros((lnx, cfg.ny, cfg.nz), dtype=cfg.dtype)
    if x0 <= cfg.nx // 2 < x0 + lnx:
        u[cfg.nx // 2 - x0, cfg.ny // 2, cfg.nz // 2] = 1.0
    return u


#: Elements per x block of the stencil (8 planes of 64 x 64).  A block's
#: accumulator, product, pair and bordered buffers then fit in a core's
#: L2 cache instead of streaming whole-slab temporaries through memory.
_BLOCK_ELEMS = 32 * 1024


def _laplacian_blocks(u: np.ndarray, r: int, lo: int, hi: int):
    """Yield ``(b_lo, b_hi, lap)``: the Laplacian of core planes
    ``[lo, hi)`` of the x-padded ``u``, one x block at a time.

    A block spans ``_BLOCK_ELEMS // (ny * nz)`` planes (at least one).
    ``lap`` is a view of a buffer reused by the next block, so a caller
    consumes it before advancing.  Block ``[b_lo, b_hi)`` reads padded
    planes ``[b_lo, b_hi + 2r)`` of ``u`` only, so the whole range
    reads ``[lo, hi + 2r)``; y/z use zero boundaries (the array edges).

    Every element is accumulated in the order of the plain formulation
    ``((3 c0) u + c1 (x pair)) + c1 (y pair) + ...``, so the result is
    bit-identical for any slice and any block height.  Buffer dtypes
    follow ``np.result_type`` promotion of the float64 coefficients
    with the field: float64 for a float32 field under NumPy 2, float32
    under NumPy 1's value-based casting.
    """
    ny, nz = u.shape[1:]
    nb = max(1, min(hi - lo, _BLOCK_ELEMS // (ny * nz)))
    zrow = nz + 2 * r
    c0 = 3.0 * _COEFFS[0]
    lap_buf = np.empty((nb, ny, nz), dtype=np.result_type(c0, u))
    # One store for the pairs: (m, ny, nz) for x and y, (m, ny, zrow) for z.
    pair_mem = np.empty(nb * ny * zrow, dtype=u.dtype)
    prod_buf = np.empty((nb, ny, nz), dtype=np.result_type(_COEFFS[1], pair_mem))
    # The block inside a zero border of r on y (resp. z): a neighbour
    # past the array edge reads +0, so an edge element's pair is
    # ``x + 0`` and a pair with no neighbour on either side is ``0 + 0``.
    # Bordering one axis at a time keeps every shifted read contiguous
    # along the rows (y) or along the flattened block (z).
    ybord_buf = np.zeros((nb, ny + 2 * r, nz), dtype=u.dtype)
    zbord_buf = np.zeros((nb, ny, zrow), dtype=u.dtype)
    for b_lo in range(lo, hi, nb):
        b_hi = min(b_lo + nb, hi)
        m = b_hi - b_lo
        lap, prod, ybord, zbord = lap_buf[:m], prod_buf[:m], ybord_buf[:m], zbord_buf[:m]
        pair = pair_mem[: m * ny * nz].reshape(m, ny, nz)
        zpair_flat = pair_mem[: m * ny * zrow]
        zflat = zbord.reshape(-1)

        def accumulate(coeff, pair: np.ndarray) -> None:
            # Widening the pair is exact, so multiplying the widened
            # copy is the mixed-dtype product, without the buffered
            # cast inside a mixed-dtype ufunc call.
            prod[...] = pair
            np.multiply(prod, coeff, out=prod)
            np.add(lap, prod, out=lap)

        core = u[r + b_lo : r + b_hi]
        np.multiply(c0, core, out=lap)
        ybord[:, r : r + ny] = core
        zbord[:, :, r : r + nz] = core
        for d in range(1, r + 1):
            np.add(u[r + b_lo + d : r + b_hi + d], u[r + b_lo - d : r + b_hi - d], out=pair)
            accumulate(_COEFFS[d], pair)
            np.add(ybord[:, r + d : r + d + ny], ybord[:, r - d : r - d + ny], out=pair)
            accumulate(_COEFFS[d], pair)
            # z pairs over the flattened block: a core column's
            # neighbours at +-d <= r stay inside its own bordered row.
            np.add(zflat[2 * d :], zflat[: -2 * d], out=zpair_flat[d:-d])
            accumulate(_COEFFS[d], zpair_flat.reshape(m, ny, zrow)[:, :, r : r + nz])
        yield b_lo, b_hi, lap


def _laplacian(u: np.ndarray, radius: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """High-order Laplacian of core planes ``[lo, hi)`` of a padded block.

    ``u`` is padded by ``radius`` on the x axis only (halo planes), so
    core plane ``i`` is ``u[radius + i]``; ``hi`` defaults to the last
    core plane.  Only padded planes ``[lo, hi + 2 * radius)`` are read.
    The result is assembled from :func:`_laplacian_blocks`, so it is
    byte-identical to what the kernels consume block by block.
    """
    if hi is None:
        hi = u.shape[0] - 2 * radius
    out = np.empty(
        (hi - lo,) + u.shape[1:], dtype=np.result_type(3.0 * _COEFFS[0], u)
    )
    for b_lo, b_hi, lap in _laplacian_blocks(u, radius, lo, hi):
        out[b_lo - lo : b_hi - lo] = lap
    return out


def minimod_reference(cfg: MinimodConfig) -> np.ndarray:
    """Single-domain reference propagation (test oracle)."""
    r = cfg.radius
    u = _initial_slab(cfg, 0, 1)
    u_prev = u.copy()
    for _ in range(cfg.steps):
        padded = np.zeros((cfg.nx + 2 * r, cfg.ny, cfg.nz), dtype=cfg.dtype)
        padded[r:-r] = u
        u_next = 2.0 * u - u_prev + cfg.courant2 * _laplacian(padded, r)
        u_prev, u = u, u_next.astype(cfg.dtype)
    return u


def _advance(
    cfg: MinimodConfig,
    u_pad: np.ndarray,
    u_prev_pad: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
) -> None:
    """Write the next time level of core planes ``[lo, hi)`` into
    ``out`` (``hi - lo`` planes), one x block at a time.

    Per block this is ``2 u - u_prev + courant2 * lap(u)`` in the plain
    expression's order and promotion, rounded once to ``cfg.dtype``.
    Block ``[b_lo, b_hi)`` reads ``u_pad`` planes ``[b_lo, b_hi + 2r)``
    and ``u_prev_pad`` planes ``[b_lo + r, b_hi + r)``, then writes its
    planes of ``out``; ``out`` may therefore alias ``u_prev_pad``'s core
    planes ``[lo, hi)`` but no plane of ``u_pad``.
    """
    r = cfg.radius
    two_u = None
    for b_lo, b_hi, lap in _laplacian_blocks(u_pad, r, lo, hi):
        cur = u_pad[r + b_lo : r + b_hi]
        prev = u_prev_pad[r + b_lo : r + b_hi]
        if two_u is None:
            two_u = np.empty(lap.shape, dtype=np.result_type(2.0, cur))
        t = two_u[: b_hi - b_lo]
        np.multiply(2.0, cur, out=t)
        np.subtract(t, prev, out=t)
        np.multiply(cfg.courant2, lap, out=lap)
        np.add(t, lap, out=lap)
        out[b_lo - lo : b_hi - lo] = lap


def _stencil_kernel(cfg: MinimodConfig, lnx: int) -> Kernel:
    """One time step over the local slab (padded field layout:
    (lnx + 2r, ny, nz), x-major so halo planes are contiguous).

    Block k+1's Laplacian reads the last r planes of block k, so the
    whole slab's next level goes to a scratch slab first; only then are
    the time levels rotated in place: prev <- cur, cur <- next."""
    r = cfg.radius

    def host_fn(u_pad: np.ndarray, u_prev_pad: np.ndarray) -> None:
        u_next = np.empty((lnx, cfg.ny, cfg.nz), dtype=cfg.dtype)
        _advance(cfg, u_pad, u_prev_pad, 0, lnx, u_next)
        u_prev_pad[r:-r] = u_pad[r:-r]
        u_pad[r:-r] = u_next

    return Kernel(
        name="minimod-stencil",
        cost=lambda *_a: stencil_cost(lnx * cfg.plane_elems),
        host_fn=host_fn if cfg.execute else None,
    )


def _field_shape(cfg: MinimodConfig, lnx: int):
    return (lnx + 2 * cfg.radius, cfg.ny, cfg.nz)


def _field_bytes(cfg: MinimodConfig, lnx: int) -> int:
    px, py, pz = _field_shape(cfg, lnx)
    return px * py * pz * cfg.itemsize


def _plane_offset(cfg: MinimodConfig, plane: int) -> int:
    """Byte offset of x-plane ``plane`` in the padded field."""
    return plane * cfg.plane_elems * cfg.itemsize


def _load_initial(cfg: MinimodConfig, rank: int, nranks: int, *bufs) -> None:
    """Write the rank's initial slab into the core planes of each buffer."""
    lnx = cfg.local_nx(nranks)
    r = cfg.radius
    slab = _initial_slab(cfg, rank, nranks)
    for buf in bufs:
        u_buf_view(cfg, buf, lnx)[r : r + lnx] = slab


def u_buf_view(cfg: MinimodConfig, buf, lnx: int) -> np.ndarray:
    return buf.as_array(cfg.dtype).reshape(_field_shape(cfg, lnx))


def _result(ctx, cfg: MinimodConfig, u_buf, lnx: int, t0: float) -> Dict[str, object]:
    out: Dict[str, object] = {"elapsed": ctx.sim.now - t0, "rank": ctx.rank}
    if cfg.execute:
        r = cfg.radius
        out["u"] = u_buf_view(cfg, u_buf, lnx)[r : r + lnx].copy()
    return out


# ---------------------------------------------------------------------------
# DiOMP variant — the paper's Listing 1
# ---------------------------------------------------------------------------


def minimod_diomp(ctx: RankContext, cfg: MinimodConfig) -> Dict[str, object]:
    diomp = ctx.diomp
    if diomp is None:
        raise ConfigurationError("minimod_diomp needs a DiompRuntime installed")
    p = ctx.nranks
    lnx = cfg.local_nx(p)
    r = cfg.radius
    virtual = not cfg.execute
    u = diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual)
    u_prev = diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual)
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, u.local, u_prev.local)
    kernel = _stencil_kernel(cfg, lnx)
    halo = cfg.halo_bytes()
    diomp.barrier()
    t0 = ctx.sim.now
    for _step in range(cfg.steps):
        # Halo exchange (Listing 1): one-sided puts, D2D.
        if ctx.rank != 0:
            # My first interior planes -> left neighbour's right halo.
            diomp.put(
                ctx.rank - 1,
                u,
                u.memref(_plane_offset(cfg, r), halo),
                target_offset=_plane_offset(cfg, r + lnx),
            )
        if ctx.rank != p - 1:
            # My last interior planes -> right neighbour's left halo.
            diomp.put(
                ctx.rank + 1,
                u,
                u.memref(_plane_offset(cfg, lnx), halo),
                target_offset=_plane_offset(cfg, 0),
            )
        diomp.fence()
        diomp.barrier()
        if cfg.execute:
            args = (u_buf_view(cfg, u.local, lnx), u_buf_view(cfg, u_prev.local, lnx))
        else:
            args = ()
        ctx.device.launch(kernel, *args, cost_args=()).wait()
        diomp.barrier()
    out = _result(ctx, cfg, u.local, lnx, t0)
    diomp.barrier()
    return out


# ---------------------------------------------------------------------------
# DiOMP variant with communication/computation overlap
# ---------------------------------------------------------------------------


def _leapfrog_kernel(cfg: MinimodConfig, lo: int, hi: int) -> Kernel:
    """Update core planes ``[lo, hi)`` (core-relative), leapfrog style:
    the next time level is written into ``u_prev``'s storage, so both
    buffers of the current step are only *read* elsewhere — which is
    what makes interior/boundary/halo concurrency safe.

    The kernel computes the Laplacian of its own planes only: it reads
    ``u_pad`` planes ``[lo, hi + 2r)`` and ``u_prev_pad`` planes
    ``[lo + r, hi + r)``, and writes the latter — exactly the access
    set :func:`repro.plan.apps.minimod_plan` declares.  The update is
    :func:`_advance`, written block by block straight into ``u_prev``:
    no block reads another block's ``u_prev`` planes."""

    def host_fn(u_pad: np.ndarray, u_prev_pad: np.ndarray) -> None:
        r = cfg.radius
        _advance(cfg, u_pad, u_prev_pad, lo, hi, u_prev_pad[r + lo : r + hi])

    return Kernel(
        name=f"minimod-leapfrog[{lo}:{hi}]",
        cost=lambda *_a: stencil_cost((hi - lo) * cfg.plane_elems),
        host_fn=host_fn if cfg.execute else None,
    )


def minimod_diomp_overlap(ctx: RankContext, cfg: MinimodConfig) -> Dict[str, object]:
    """Extension: hide the halo exchange under the interior update.

    Per step: (1) launch the interior stencil (planes that need no
    halo) asynchronously, (2) push halos one-sided while it runs,
    (3) fence, run the two boundary slabs, barrier, swap time levels.
    """
    diomp = ctx.diomp
    if diomp is None:
        raise ConfigurationError("minimod_diomp_overlap needs a DiompRuntime")
    p = ctx.nranks
    lnx = cfg.local_nx(p)
    r = cfg.radius
    if lnx < 2 * r:
        raise ConfigurationError(
            f"overlap variant needs local slabs of >= {2 * r} planes, got {lnx}"
        )
    virtual = not cfg.execute
    bufs = [
        diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual),
        diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual),
    ]
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, bufs[0].local, bufs[1].local)
    # A slab of exactly 2r planes is all boundary: no interior kernel.
    has_interior = lnx > 2 * r
    interior = _leapfrog_kernel(cfg, r, lnx - r) if has_interior else None
    left_slab = _leapfrog_kernel(cfg, 0, r)
    right_slab = _leapfrog_kernel(cfg, lnx - r, lnx)
    halo = cfg.halo_bytes()
    stream = ctx.device.create_stream()
    diomp.barrier()
    t0 = ctx.sim.now
    cur, nxt = 0, 1  # u = bufs[cur], u_prev/u_next = bufs[nxt]
    for _step in range(cfg.steps):
        u, u_prev = bufs[cur], bufs[nxt]
        if cfg.execute:
            args = (
                u_buf_view(cfg, u.local, lnx),
                u_buf_view(cfg, u_prev.local, lnx),
            )
        else:
            args = ()
        inner = (
            ctx.device.launch(interior, *args, cost_args=(), stream=stream)
            if has_interior
            else None
        )
        # Halo exchange rides under the interior update.
        if ctx.rank != 0:
            diomp.put(
                ctx.rank - 1,
                u,
                u.memref(_plane_offset(cfg, r), halo),
                target_offset=_plane_offset(cfg, r + lnx),
            )
        if ctx.rank != p - 1:
            diomp.put(
                ctx.rank + 1,
                u,
                u.memref(_plane_offset(cfg, lnx), halo),
                target_offset=_plane_offset(cfg, 0),
            )
        diomp.fence()
        diomp.barrier()  # halos in place everywhere
        b1 = ctx.device.launch(left_slab, *args, cost_args=(), stream=stream)
        b2 = ctx.device.launch(right_slab, *args, cost_args=(), stream=stream)
        if inner is not None:
            inner.wait()
        b1.wait()
        b2.wait()
        diomp.barrier()
        cur, nxt = nxt, cur
    # After `steps` swaps the freshest time level sits in bufs[cur].
    out = _result(ctx, cfg, bufs[cur].local, lnx, t0)
    diomp.barrier()
    return out


# ---------------------------------------------------------------------------
# MPI + OpenMP target variant — the paper's Listing 2
# ---------------------------------------------------------------------------


def minimod_mpi(ctx: RankContext, cfg: MinimodConfig, mpi: MpiWorld) -> Dict[str, object]:
    from repro.omptarget import OmpTargetRuntime

    comm = mpi.comm_world(ctx.rank)
    rt = OmpTargetRuntime(ctx)
    p = comm.size
    lnx = cfg.local_nx(p)
    r = cfg.radius
    virtual = not cfg.execute
    u = rt.omp_target_alloc(_field_bytes(cfg, lnx), virtual=virtual)
    u_prev = rt.omp_target_alloc(_field_bytes(cfg, lnx), virtual=virtual)
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, u, u_prev)
    kernel = _stencil_kernel(cfg, lnx)
    halo = cfg.halo_bytes()
    mpi_coll.barrier(comm)
    t0 = ctx.sim.now

    def dev_ref(plane: int) -> MemRef:
        return MemRef.device(u, offset=_plane_offset(cfg, plane), nbytes=halo)

    for _step in range(cfg.steps):
        # Halo exchange (Listing 2): four requests + Waitall.
        requests = []
        if ctx.rank != 0:
            requests.append(comm.irecv(dev_ref(0), source=ctx.rank - 1, tag=1))
            requests.append(comm.isend(dev_ref(r), dest=ctx.rank - 1, tag=2))
        if ctx.rank != p - 1:
            requests.append(comm.irecv(dev_ref(r + lnx), source=ctx.rank + 1, tag=2))
            requests.append(comm.isend(dev_ref(lnx), dest=ctx.rank + 1, tag=1))
        waitall(requests)
        mpi_coll.barrier(comm)
        if cfg.execute:
            args = (u_buf_view(cfg, u, lnx), u_buf_view(cfg, u_prev, lnx))
        else:
            args = ()
        ctx.device.launch(kernel, *args, cost_args=()).wait()
        mpi_coll.barrier(comm)
    out = _result(ctx, cfg, u, lnx, t0)
    mpi_coll.barrier(comm)
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_minimod(
    world: World,
    cfg: MinimodConfig,
    impl: str = "diomp",
    runtime: Optional[DiompRuntime] = None,
    mpi: Optional[MpiWorld] = None,
) -> SpmdResult:
    """Launch Minimod on every rank of ``world``."""
    if impl == "diomp":
        if runtime is None:
            from repro.core.runtime import DiompParams

            lnx = cfg.local_nx(world.nranks)
            need = 6 * _field_bytes(cfg, lnx) + (1 << 20)
            runtime = DiompRuntime(world, DiompParams(segment_size=need))
        return run_spmd(world, minimod_diomp, cfg)
    if impl == "diomp-overlap":
        if runtime is None:
            from repro.core.runtime import DiompParams

            lnx = cfg.local_nx(world.nranks)
            need = 6 * _field_bytes(cfg, lnx) + (1 << 20)
            runtime = DiompRuntime(world, DiompParams(segment_size=need))
        return run_spmd(world, minimod_diomp_overlap, cfg)
    if impl == "mpi":
        mpi = mpi or MpiWorld(world)
        return run_spmd(world, minimod_mpi, cfg, mpi)
    raise ConfigurationError(f"unknown minimod implementation {impl!r}")
