"""DiOMP Groups: ``ompx_group_t`` (§3.3).

A group partitions the communication domain, like an MPI communicator
but decoupled from rank boundaries: membership is over *ranks with
their bound devices*, collectives run per device slot, and groups can
be **merged** and **split** at runtime to follow program phases.

Group handles are lightweight and value-comparable; the heavyweight
state (OMPCCL communicators, barriers) is owned by the runtime and
keyed by group id.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.topology import DeviceId
from repro.util.errors import ConfigurationError

#: process-wide fallback allocator, used only when no runtime supplies
#: an id.  Runtime-created groups draw from the runtime's own counter
#: (``DiompRuntime.next_group_id``) so that two identical sequential
#: runs in one process produce identical group ids and stable
#: ``group=`` metric/trace labels.
_group_ids = itertools.count()


@dataclasses.dataclass(frozen=True)
class DiompGroup:
    """An immutable group handle (``ompx_group_t``)."""

    group_id: int
    #: member world ranks, in group order
    ranks: Tuple[int, ...]
    #: member devices, rank-major (each rank contributes its bound GPUs)
    devices: Tuple[DeviceId, ...]
    #: world rank -> group rank, derived from ``ranks``
    _index: Dict[int, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {r: i for i, r in enumerate(self.ranks)}
        object.__setattr__(self, "_index", index)

    @staticmethod
    def create(
        ranks: Sequence[int],
        devices_by_rank: dict,
        group_id: Optional[int] = None,
    ) -> "DiompGroup":
        """Build a group over ``ranks`` (runtime-internal constructor).

        ``group_id`` should come from the owning runtime's allocator;
        the module-global counter is only a fallback for standalone
        construction outside any runtime.
        """
        ranks = tuple(ranks)
        if not ranks:
            raise ConfigurationError("a group needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ConfigurationError(f"duplicate ranks in group: {ranks}")
        devices: List[DeviceId] = []
        for r in ranks:
            devices.extend(devices_by_rank[r])
        if group_id is None:
            group_id = next(_group_ids)
        return DiompGroup(group_id, ranks, tuple(devices))

    @property
    def size(self) -> int:
        """Number of member ranks."""
        return len(self.ranks)

    @property
    def device_count(self) -> int:
        """Number of member devices (collective slots)."""
        return len(self.devices)

    def contains(self, world_rank: int) -> bool:
        return world_rank in self._index

    def group_rank(self, world_rank: int) -> int:
        """The group-relative index of a world rank."""
        try:
            return self._index[world_rank]
        except KeyError:
            raise ConfigurationError(
                f"rank {world_rank} is not a member of group {self.group_id}"
            ) from None

    def device_slots(self, world_rank: int) -> List[int]:
        """The collective slots owned by one member rank.

        Devices are rank-major and every rank contributes the same
        number of bound devices (a world invariant), so a rank's slots
        form a contiguous span.
        """
        per_rank = len(self.devices) // len(self.ranks)
        gr = self.group_rank(world_rank)
        return list(range(gr * per_rank, (gr + 1) * per_rank))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiompGroup {self.group_id} ranks={self.ranks}>"
