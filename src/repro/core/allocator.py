"""Heap allocators for the global segment.

The paper (§3.1) builds the PGAS space "using strategies such as a
linear heap allocator or a buddy allocator".  Both are provided and
are interchangeable behind the same two-method interface
(``alloc(size, align) -> offset``, ``free(offset)``); the ablation
bench compares their fragmentation/throughput trade-off.

Offsets are relative to the segment base, which is what makes
symmetric allocation work: the runtime keeps one symmetric heap per
device number and one host heap, and the last rank to reach an
allocation's rendezvous allocates from it once.  Every rank adds that
one offset to its own segment base, so offsets cannot diverge.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.util.errors import AllocationError


def _check_align(align: int) -> None:
    if align <= 0 or (align & (align - 1)) != 0:
        raise AllocationError(f"alignment must be a positive power of two, got {align}")


class LinearAllocator:
    """First-fit free-list allocator with coalescing.

    Free blocks are kept sorted by offset; allocation scans for the
    first block that fits (after alignment), frees coalesce with both
    neighbours.  Deterministic: same call sequence → same offsets.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: sorted list of (offset, size) free blocks
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        #: live allocations: offset -> size
        self._live: Dict[int, int] = {}
        self.allocated_bytes = 0

    def alloc(self, size: int, align: int = 16) -> int:
        """Allocate ``size`` bytes aligned to ``align``; returns offset."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        _check_align(align)
        for i, (off, block) in enumerate(self._free):
            aligned = (off + align - 1) & ~(align - 1)
            pad = aligned - off
            if pad + size > block:
                continue
            # Split the free block into [pad][allocation][tail].
            del self._free[i]
            if pad:
                self._free.insert(i, (off, pad))
                i += 1
            tail = block - pad - size
            if tail:
                self._free.insert(i, (aligned + size, tail))
            self._live[aligned] = size
            self.allocated_bytes += size
            return aligned
        raise AllocationError(
            f"linear allocator exhausted: {size} bytes requested, "
            f"{self.free_bytes} free (fragmented into {len(self._free)} blocks)"
        )

    def free(self, offset: int) -> None:
        """Release the allocation at ``offset``; coalesces neighbours."""
        size = self._live.pop(offset, None)
        if size is None:
            raise AllocationError(f"free of unknown offset {offset}")
        self.allocated_bytes -= size
        idx = bisect.bisect_left(self._free, (offset, 0))
        # Merge with the following block.
        if idx < len(self._free) and self._free[idx][0] == offset + size:
            size += self._free[idx][1]
            del self._free[idx]
        # Merge with the preceding block.
        if idx > 0:
            prev_off, prev_size = self._free[idx - 1]
            if prev_off + prev_size == offset:
                offset, size = prev_off, prev_size + size
                del self._free[idx - 1]
                idx -= 1
        self._free.insert(idx, (offset, size))

    @property
    def free_bytes(self) -> int:
        return sum(size for _off, size in self._free)

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def fragmentation(self) -> float:
        """1 − (largest free block / total free); 0 when unfragmented."""
        if not self._free:
            return 0.0
        total = self.free_bytes
        if total == 0:
            return 0.0
        return 1.0 - max(size for _o, size in self._free) / total


class BuddyAllocator:
    """Classic binary buddy allocator.

    Capacity is rounded down to a power of two; requests round up to a
    power of two (≥ ``min_block``).  Frees coalesce buddies eagerly.
    Internal fragmentation is the price for O(log n) operations and
    bounded external fragmentation.
    """

    def __init__(self, capacity: int, min_block: int = 256) -> None:
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        _check_align(min_block)
        self.order_max = capacity.bit_length() - 1
        self.capacity = 1 << self.order_max
        self.min_order = min_block.bit_length() - 1
        if self.min_order > self.order_max:
            raise AllocationError("min_block exceeds capacity")
        #: free lists per order: order -> sorted offsets
        self._free: Dict[int, List[int]] = {o: [] for o in range(self.min_order, self.order_max + 1)}
        self._free[self.order_max].append(0)
        self._live: Dict[int, int] = {}  # offset -> order
        self.allocated_bytes = 0

    def _order_for(self, size: int) -> int:
        order = max(self.min_order, (size - 1).bit_length())
        if order > self.order_max:
            raise AllocationError(
                f"request of {size} bytes exceeds buddy capacity {self.capacity}"
            )
        return order

    def alloc(self, size: int, align: int = 16) -> int:
        """Allocate; buddy blocks are naturally size-aligned, which
        satisfies any ``align`` ≤ block size."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        _check_align(align)
        order = self._order_for(max(size, align))
        # Find the smallest order with a free block.
        o = order
        while o <= self.order_max and not self._free[o]:
            o += 1
        if o > self.order_max:
            raise AllocationError(
                f"buddy allocator exhausted for {size}-byte request "
                f"(order {order})"
            )
        offset = self._free[o].pop(0)
        # Split down to the target order.
        while o > order:
            o -= 1
            buddy = offset + (1 << o)
            bisect.insort(self._free[o], buddy)
        self._live[offset] = order
        self.allocated_bytes += 1 << order
        return offset

    def free(self, offset: int) -> None:
        order = self._live.pop(offset, None)
        if order is None:
            raise AllocationError(f"free of unknown offset {offset}")
        self.allocated_bytes -= 1 << order
        # Coalesce with the buddy while possible.
        while order < self.order_max:
            buddy = offset ^ (1 << order)
            idx = bisect.bisect_left(self._free[order], buddy)
            if idx >= len(self._free[order]) or self._free[order][idx] != buddy:
                break
            del self._free[order][idx]
            offset = min(offset, buddy)
            order += 1
        bisect.insort(self._free[order], offset)

    @property
    def free_bytes(self) -> int:
        return sum((1 << o) * len(blocks) for o, blocks in self._free.items())

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def block_size(self, offset: int) -> int:
        """The rounded block size backing a live allocation."""
        try:
            return 1 << self._live[offset]
        except KeyError:
            raise AllocationError(f"unknown offset {offset}") from None


def make_allocator(kind: str, capacity: int) -> object:
    """Factory used by the runtime config ("linear" | "buddy")."""
    if kind == "linear":
        return LinearAllocator(capacity)
    if kind == "buddy":
        return BuddyAllocator(capacity)
    raise AllocationError(f"unknown allocator kind {kind!r}")
