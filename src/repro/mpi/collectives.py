"""MPI collective algorithms built on the two-sided layer.

The algorithm switches mirror MPICH's tuning:

* **barrier** — dissemination (⌈log2 P⌉ rounds of zero-byte messages),
* **bcast** — binomial tree for short messages, van de Geijn
  (scatter + ring allgather) for long ones,
* **reduce** — binomial tree reduction toward the root,
* **allreduce** — recursive doubling for short messages, Rabenseifner
  (reduce-scatter + allgather) for long ones,
* **allgather** — ring.

Because every step is a real simulated message, collective timing
inherits the full path model (intra-node links, NIC striping,
contention) — which is exactly what makes the Fig. 6 comparison
against OMPCCL meaningful.  Reductions have one code path for real
and virtual buffers: messages move between the caller's buffers'
endpoints, so a program is priced the same whether or not its buffers
hold data, and numpy combines run only on real ones (mixing the two
raises, as :meth:`~repro.cluster.MemRef.copy_from` does).  See
docs/COLLECTIVES.md.

These functions are *per-rank* and collective: every member of the
communicator must call them in matching order, as in MPI.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.mpi.comm import Communicator
from repro.util.errors import CommunicationError

#: tag space reserved for collective internals
_COLL_TAG = 1_000_000


def _chunk_bounds(total: int, parts: int, index: int) -> tuple:
    """Contiguous block decomposition of ``total`` items into ``parts``."""
    base, extra = divmod(total, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def barrier(comm: Communicator) -> None:
    """Dissemination barrier."""
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    empty = np.zeros(0, dtype=np.uint8)
    node = comm.mpi.world.ranks[comm.world_rank].node
    distance = 1
    while distance < size:
        dest = (rank + distance) % size
        source = (rank - distance) % size
        comm.sendrecv(
            MemRef.host(node, empty),
            dest,
            MemRef.host(node, np.zeros(0, dtype=np.uint8)),
            source,
            send_tag=_COLL_TAG + distance,
            recv_tag=_COLL_TAG + distance,
        )
        distance *= 2


def bcast(comm: Communicator, memref: MemRef, root: int = 0) -> None:
    """Broadcast ``memref`` from ``root`` to all ranks."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"bad bcast root {root}")
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    if comm.size == 1:
        return
    if memref.nbytes <= comm.mpi.params.bcast_long_threshold:
        _bcast_binomial(comm, memref, root)
    else:
        _bcast_scatter_allgather(comm, memref, root)


def _check_bcast_count(comm: Communicator, memref: MemRef, nbytes: int, root: int) -> None:
    """A short broadcast message means the root passed a smaller count
    than this rank (a larger one overflows ``memref`` on receipt)."""
    if nbytes != memref.nbytes:
        raise CommunicationError(
            f"bcast root {root} sent {nbytes} bytes where rank {comm.rank} "
            f"expects {memref.nbytes} (every rank must pass the root's count)"
        )


def _bcast_binomial(comm: Communicator, memref: MemRef, root: int) -> None:
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size  # virtual rank with root at 0
    mask = 1
    while mask < size:
        if vrank & mask:
            src = ((vrank - mask) + root) % size
            nbytes = comm.recv(memref, source=src, tag=_COLL_TAG + 10)[2]
            if mask == 1 or vrank + 1 == size:
                # Only a leaf checks: a rank with children forwards its
                # whole buffer, so a larger count there overflows a
                # child instead.  Virtual rank 1 is a leaf under the
                # root, so a root passing a smaller count is always
                # caught.
                _check_bcast_count(comm, memref, nbytes, root)
            break
        mask *= 2
    mask //= 2
    while mask >= 1:
        if vrank + mask < size:
            dst = ((vrank + mask) + root) % size
            comm.send(memref, dst, tag=_COLL_TAG + 10)
        mask //= 2


def _bcast_scatter_allgather(comm: Communicator, memref: MemRef, root: int) -> None:
    """van de Geijn long-message broadcast: scatter blocks from the
    root, then ring-allgather them."""
    size, rank = comm.size, comm.rank
    # Scatter phase: root sends each rank its block (flat; the binomial
    # scatter refinement changes constants, not shape).
    blocks = [_chunk_bounds(memref.nbytes, size, i) for i in range(size)]
    if rank == root:
        reqs = []
        for peer in range(size):
            if peer == root:
                continue
            lo, hi = blocks[peer]
            if hi > lo:
                reqs.append(
                    comm.isend(memref.slice(lo, hi - lo), peer, tag=_COLL_TAG + 11)
                )
        for r in reqs:
            r.wait()
    else:
        lo, hi = blocks[rank]
        if hi > lo:
            block = memref.slice(lo, hi - lo)
            nbytes = comm.recv(block, source=root, tag=_COLL_TAG + 11)[2]
            _check_bcast_count(comm, block, nbytes, root)
    # Ring allgather of the blocks.
    _ring_allgather_blocks(comm, memref, blocks, tag=_COLL_TAG + 12)


def _ring_allgather_blocks(comm, memref: MemRef, blocks, tag: int, owned: Optional[int] = None) -> None:
    """Ring allgather where each rank starts owning block ``owned``
    (defaults to its own rank index)."""
    size, rank = comm.size, comm.rank
    if owned is None:
        owned = rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (owned - step) % size
        recv_block = (owned - step - 1) % size
        s_lo, s_hi = blocks[send_block]
        r_lo, r_hi = blocks[recv_block]
        comm.sendrecv(
            memref.slice(s_lo, s_hi - s_lo),
            right,
            memref.slice(r_lo, r_hi - r_lo),
            left,
            send_tag=tag + step,
            recv_tag=tag + step,
        )


def _scratch(ref: MemRef) -> MemRef:
    """Where a partner's contribution lands: a fresh buffer at ``ref``'s
    endpoint, or ``ref`` itself when it is virtual (timing only)."""
    if ref.is_virtual:
        return ref
    return MemRef(ref.endpoint, np.empty(ref.nbytes, np.uint8), 0, ref.nbytes)


def _combine(acc: MemRef, partner: MemRef, dtype: np.dtype, op: Callable) -> None:
    """``acc = op(acc, partner)`` element-wise (virtual ``acc``: no-op)."""
    if not acc.is_virtual:
        view = acc.typed(dtype)
        view[:] = op(view, partner.typed(dtype))


def reduce(
    comm: Communicator,
    send: MemRef,
    recv: Optional[MemRef],
    dtype: np.dtype,
    op: Callable = np.add,
    root: int = 0,
) -> None:
    """Binomial-tree reduction toward ``root``.

    ``recv`` is required at the root and ignored elsewhere.  ``send``
    is left unmodified: the partial sum lives in a buffer at ``send``'s
    endpoint, so messages are priced on the caller's memory path.
    """
    if not 0 <= root < comm.size:
        raise CommunicationError(f"bad reduce root {root}")
    if comm.rank == root and recv is None:
        raise CommunicationError("reduce root needs a receive buffer")
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    dtype = np.dtype(dtype)
    size, rank = comm.size, comm.rank
    acc = _scratch(send)
    acc.copy_from(send)
    partner = _scratch(send)
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            dst = ((vrank - mask) + root) % size
            comm.send(acc, dst, tag=_COLL_TAG + 20)
            break
        peer_v = vrank | mask
        if peer_v < size:
            src = (peer_v + root) % size
            comm.recv(partner, source=src, tag=_COLL_TAG + 20)
            _combine(acc, partner, dtype, op)
        mask *= 2
    if rank == root:
        recv.copy_from(acc)


def allreduce(
    comm: Communicator,
    send: MemRef,
    recv: MemRef,
    dtype: np.dtype,
    op: Callable = np.add,
) -> None:
    """Allreduce with MPICH's algorithm switch.

    ``recv`` (a copy of ``send``) is the accumulator, so every message
    moves between the caller's buffers' endpoints.
    """
    dtype = np.dtype(dtype)
    if send.nbytes != recv.nbytes:
        raise CommunicationError("allreduce buffers must have equal size")
    if send.nbytes % dtype.itemsize:
        raise CommunicationError(
            f"allreduce buffer of {send.nbytes} bytes is not a multiple of "
            f"{dtype} itemsize"
        )
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    recv.copy_from(send)
    if comm.size == 1:
        return
    if send.nbytes <= comm.mpi.params.allreduce_long_threshold:
        _allreduce_recursive_doubling(comm, recv, dtype, op)
    else:
        _allreduce_rabenseifner(comm, recv, dtype, op)


def _allreduce_recursive_doubling(comm, acc: MemRef, dtype, op) -> None:
    size, rank = comm.size, comm.rank
    partner = _scratch(acc)
    # Non-power-of-two: fold the remainder into the lower half first.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    newrank = -1
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.send(acc, rank + 1, tag=_COLL_TAG + 30)
        else:
            comm.recv(partner, source=rank - 1, tag=_COLL_TAG + 30)
            _combine(acc, partner, dtype, op)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            peer_new = newrank ^ mask
            peer = peer_new * 2 + 1 if peer_new < rem else peer_new + rem
            comm.sendrecv(
                acc, peer, partner, peer, send_tag=_COLL_TAG + 31, recv_tag=_COLL_TAG + 31
            )
            _combine(acc, partner, dtype, op)
            mask *= 2
    # Hand results back to the folded ranks.
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.recv(acc, source=rank + 1, tag=_COLL_TAG + 32)
        else:
            comm.send(acc, rank - 1, tag=_COLL_TAG + 32)


def _allreduce_rabenseifner(comm, acc: MemRef, dtype, op) -> None:
    """Reduce-scatter (pairwise-exchange) + ring allgather.

    For clarity the reduce-scatter runs as a ring (P-1 steps of
    1/P-sized blocks) — same volume as Rabenseifner's halving for the
    large messages this branch handles.
    """
    size, rank = comm.size, comm.rank
    itemsize = dtype.itemsize
    blocks = [_chunk_bounds(acc.nbytes // itemsize, size, i) for i in range(size)]
    byte_blocks = [(lo * itemsize, hi * itemsize) for lo, hi in blocks]
    # Block 0 is the largest; every step receives into a prefix of it.
    partner = _scratch(acc.slice(0, byte_blocks[0][1]))
    right, left = (rank + 1) % size, (rank - 1) % size
    # Reduce-scatter ring: after P-1 steps rank owns the full reduction
    # of its block.
    for step in range(size - 1):
        s_lo, s_hi = byte_blocks[(rank - step) % size]
        r_lo, r_hi = byte_blocks[(rank - step - 1) % size]
        into = partner.slice(0, r_hi - r_lo)
        comm.sendrecv(
            acc.slice(s_lo, s_hi - s_lo),
            right,
            into,
            left,
            send_tag=_COLL_TAG + 40 + step,
            recv_tag=_COLL_TAG + 40 + step,
        )
        _combine(acc.slice(r_lo, r_hi - r_lo), into, dtype, op)
    # Allgather ring distributes the reduced blocks.  After the
    # reduce-scatter, rank r owns the fully reduced block (r+1) mod P.
    _ring_allgather_blocks(
        comm,
        acc,
        byte_blocks,
        tag=_COLL_TAG + 40 + size,
        owned=(rank + 1) % size,
    )


def scatter(comm: Communicator, send: Optional[MemRef], recv: MemRef, root: int = 0) -> None:
    """Linear scatter: the root sends block ``i`` of ``send`` to rank
    ``i``; every rank receives its block into ``recv``."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"bad scatter root {root}")
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    block = recv.nbytes
    if comm.rank == root:
        if send is None:
            raise CommunicationError("scatter root needs a send buffer")
        if send.nbytes != block * comm.size:
            raise CommunicationError(
                "scatter send buffer must hold size*block "
                f"({block * comm.size}), got {send.nbytes}"
            )
        reqs = []
        for peer in range(comm.size):
            chunk = send.slice(peer * block, block)
            if peer == root:
                recv.copy_from(chunk)
            else:
                reqs.append(comm.isend(chunk, peer, tag=_COLL_TAG + 60))
        for r in reqs:
            r.wait()
    else:
        comm.recv(recv, source=root, tag=_COLL_TAG + 60)


def gather(comm: Communicator, send: MemRef, recv: Optional[MemRef], root: int = 0) -> None:
    """Linear gather: rank ``i``'s ``send`` lands in block ``i`` of the
    root's ``recv``."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"bad gather root {root}")
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    block = send.nbytes
    if comm.rank == root:
        if recv is None:
            raise CommunicationError("gather root needs a receive buffer")
        if recv.nbytes != block * comm.size:
            raise CommunicationError(
                "gather receive buffer must hold size*block "
                f"({block * comm.size}), got {recv.nbytes}"
            )
        reqs = []
        for peer in range(comm.size):
            chunk = recv.slice(peer * block, block)
            if peer == root:
                chunk.copy_from(send)
            else:
                reqs.append(comm.irecv(chunk, source=peer, tag=_COLL_TAG + 61))
        for r in reqs:
            r.wait()
    else:
        comm.send(send, root, tag=_COLL_TAG + 61)


def alltoall(comm: Communicator, send: MemRef, recv: MemRef) -> None:
    """Pairwise-exchange all-to-all: block ``j`` of rank ``i``'s send
    buffer arrives as block ``i`` of rank ``j``'s receive buffer."""
    if send.nbytes != recv.nbytes:
        raise CommunicationError("alltoall buffers must match in size")
    if send.nbytes % comm.size:
        raise CommunicationError(
            f"alltoall buffer of {send.nbytes} bytes does not divide into "
            f"{comm.size} blocks"
        )
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    size, rank = comm.size, comm.rank
    block = send.nbytes // size
    recv.slice(rank * block, block).copy_from(send.slice(rank * block, block))
    # Pairwise exchange: step s pairs rank with rank ^ s (power-of-two)
    # or (rank + s) / (rank - s) otherwise.
    pof2 = size & (size - 1) == 0
    for step in range(1, size):
        peer = rank ^ step if pof2 else (rank + step) % size
        recv_from = peer if pof2 else (rank - step) % size
        comm.sendrecv(
            send.slice(peer * block, block),
            peer,
            recv.slice(recv_from * block, block),
            recv_from,
            send_tag=_COLL_TAG + 70 + step,
            recv_tag=_COLL_TAG + 70 + step,
        )


def allgather(comm: Communicator, send: MemRef, recv: MemRef) -> None:
    """Ring allgather: every rank contributes ``send`` (equal sizes)."""
    if recv.nbytes != send.nbytes * comm.size:
        raise CommunicationError(
            "allgather receive buffer must hold size*nbytes "
            f"({send.nbytes * comm.size}), got {recv.nbytes}"
        )
    comm.sim.sleep(comm.mpi.params.collective_overhead)
    block = send.nbytes
    mine = recv.slice(comm.rank * block, block)
    mine.copy_from(send)
    if comm.size == 1:
        return
    byte_blocks = [(i * block, (i + 1) * block) for i in range(comm.size)]
    _ring_allgather_blocks(comm, recv, byte_blocks, tag=_COLL_TAG + 50)
