"""Cluster topology and communication path queries.

The topology answers the question the DiOMP runtime asks before every
transfer (paper §3.2): *given two endpoints, what is the best physical
path and what are its parameters?*  Four path kinds exist:

* ``SAME_DEVICE`` — a local device copy,
* ``PEER_DIRECT`` — GPUs on one node joined by NVLink/xGMI,
* ``HOST_STAGED`` — GPUs on one node without a direct link (PCIe via
  the host),
* ``INTER_NODE`` — through the NICs and the cluster fabric.

A :class:`Path` carries the effective latency, the effective bandwidth
(after NIC quirks), and the list of *resource keys* — the physical
links the transfer occupies — which the network fabric uses to model
contention.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Dict, List, Tuple

from repro.hardware.node import NodeSpec
from repro.util.errors import ConfigurationError
from repro.util.units import US


class DeviceId(collections.namedtuple("DeviceId", "kind node index")):
    """Globally unique endpoint identifier.

    ``kind`` is ``"gpu"`` or ``"host"``; ``index`` is the device index
    within its node (0 for hosts).  A tuple, so every device-keyed
    lookup hashes and compares it in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, node: int, index: int) -> "DeviceId":
        if kind not in ("gpu", "host"):
            raise ConfigurationError(f"bad device kind {kind!r}")
        return tuple.__new__(cls, (kind, node, index))

    def __str__(self) -> str:
        if self.kind == "host":
            return f"host{self.node}"
        return f"gpu{self.node}.{self.index}"


class PathKind(enum.Enum):
    SAME_DEVICE = "same-device"
    PEER_DIRECT = "peer-direct"
    HOST_STAGED = "host-staged"
    INTER_NODE = "inter-node"


#: Latency of a device-local copy (queue + DMA setup).
_LOCAL_COPY_LATENCY = 0.5 * US


@dataclasses.dataclass(frozen=True)
class Path:
    """The resolved physical route between two endpoints."""

    kind: PathKind
    latency: float
    bandwidth: float
    #: resource keys (unique physical link names) the transfer occupies
    resources: Tuple[str, ...]
    #: whether GPUs on this path may enable direct peer access
    peer_capable: bool = True

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded end-to-end time for a message of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        return self.latency + nbytes / self.bandwidth


class ClusterTopology:
    """``num_nodes`` replicas of a :class:`NodeSpec`, linked by a fabric.

    The fabric core is modelled as non-blocking (standard fat-tree
    assumption): only NICs and intra-node links are contended
    resources.
    """

    def __init__(self, node_spec: NodeSpec, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        self.node_spec = node_spec
        self.num_nodes = num_nodes
        #: routes by path() arguments: specs are frozen, so a route
        #: never changes once resolved
        self._paths: Dict[tuple, Path] = {}

    # Resource keys are *directional*: modern fabrics (Slingshot, NDR,
    # NVLink, xGMI, PCIe) are full duplex, so the two directions of a
    # link are independent contention domains.

    @staticmethod
    def _host_link_key(node: int, gpu: int, direction: str) -> str:
        return f"node{node}/host-gpu{gpu}/{direction}"

    @staticmethod
    def _pair_link_key(node: int, src: int, dst: int) -> str:
        return f"node{node}/gpu{src}->gpu{dst}"

    def _nic_key(self, node: int, nic_index: int, direction: str) -> str:
        return f"node{node}/nic{nic_index}/{direction}"

    # -- lookups ---------------------------------------------------------------

    def gpu(self, node: int, index: int) -> DeviceId:
        """The :class:`DeviceId` for a GPU, with bounds checking."""
        return self._checked(DeviceId("gpu", node, index))

    def host(self, node: int) -> DeviceId:
        return self._checked(DeviceId("host", node, 0))

    def all_gpus(self) -> List[DeviceId]:
        """Every GPU in the cluster, ordered (node-major)."""
        return [
            DeviceId("gpu", n, g)
            for n in range(self.num_nodes)
            for g in range(self.node_spec.gpus_per_node)
        ]

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node_spec.gpus_per_node

    def nic_for(self, device: DeviceId) -> int:
        """The NIC index a device injects through (GPUs are striped
        across the node's NICs, as on Perlmutter/Frontier)."""
        if device.kind == "host":
            return 0
        return device.index % self.node_spec.nics_per_node

    def _checked(self, device: DeviceId) -> DeviceId:
        """``device`` if it is an endpoint of this cluster."""
        per_node = 1 if device.kind == "host" else self.node_spec.gpus_per_node
        if not (0 <= device.node < self.num_nodes and 0 <= device.index < per_node):
            raise ConfigurationError(
                f"unknown device {device}: out of range (cluster has "
                f"{self.num_nodes} node(s) of {self.node_spec.gpus_per_node} GPUs)"
            )
        return device

    # -- path resolution --------------------------------------------------------

    def path(
        self,
        src: DeviceId,
        dst: DeviceId,
        operation: str = "put",
        gpu_memory: bool = True,
        rails: int = 1,
        force_network: bool = False,
    ) -> Path:
        """Resolve the best physical route from ``src`` to ``dst``.

        ``operation`` ("put" | "get") and ``gpu_memory`` exist so NIC
        quirks (e.g. the Platform-A GPU-put degradation) can apply.
        ``rails > 1`` requests multirail striping: large messages are
        split across up to that many of the node's NICs (the Slingshot
        multi-NIC feature both GASNet-EX and Cray MPICH exploit);
        intra-node paths ignore it.  ``force_network`` makes even a
        same-node pair loop through the NICs — what a network conduit
        does without an intra-node shared-memory/IPC layer, and the
        thing DiOMP's hierarchical path selection avoids.

        Each argument tuple is resolved once; later calls return the
        same :class:`Path` object.
        """
        key = (src, dst, operation, gpu_memory, rails, force_network)
        path = self._paths.get(key)
        if path is not None:
            return path
        self._checked(src)
        self._checked(dst)
        if src == dst:
            bw = (
                self.node_spec.gpu.mem_bandwidth
                if src.kind == "gpu"
                else self.node_spec.host_link.bandwidth
            )
            path = Path(PathKind.SAME_DEVICE, _LOCAL_COPY_LATENCY, bw, ())
        elif src.node == dst.node and not force_network:
            path = self._intra_node_path(src, dst)
        else:
            path = self._inter_node_path(src, dst, operation, gpu_memory, rails)
        self._paths[key] = path
        return path

    def _intra_node_path(self, src: DeviceId, dst: DeviceId) -> Path:
        spec = self.node_spec
        if src.kind == "gpu" and dst.kind == "gpu":
            link = spec.link_between(src.index, dst.index)
            if link is not None:
                return Path(
                    PathKind.PEER_DIRECT,
                    link.latency,
                    link.bandwidth,
                    (self._pair_link_key(src.node, src.index, dst.index),),
                    peer_capable=link.peer_capable,
                )
            host = spec.host_link
            return Path(
                PathKind.HOST_STAGED,
                2 * host.latency,
                host.bandwidth,
                (
                    self._host_link_key(src.node, src.index, "d2h"),
                    self._host_link_key(dst.node, dst.index, "h2d"),
                ),
                peer_capable=False,
            )
        # host<->gpu
        gpu = src if src.kind == "gpu" else dst
        direction = "d2h" if src.kind == "gpu" else "h2d"
        host = spec.host_link
        return Path(
            PathKind.HOST_STAGED,
            host.latency,
            host.bandwidth,
            (self._host_link_key(gpu.node, gpu.index, direction),),
            peer_capable=False,
        )

    def _inter_node_path(
        self, src: DeviceId, dst: DeviceId, operation: str, gpu_memory: bool, rails: int = 1
    ) -> Path:
        spec = self.node_spec
        nic = spec.nic
        src_nic = self.nic_for(src)
        dst_nic = self.nic_for(dst)
        latency = nic.latency
        rails_eff = max(1, min(rails, spec.nics_per_node))
        bandwidth = nic.effective_bandwidth(operation, gpu_memory) * rails_eff
        resources = []
        for r in range(rails_eff):
            resources.append(
                self._nic_key(src.node, (src_nic + r) % spec.nics_per_node, "tx")
            )
            resources.append(
                self._nic_key(dst.node, (dst_nic + r) % spec.nics_per_node, "rx")
            )
        if not nic.gpudirect_rdma and gpu_memory:
            # Stage through host memory on both sides.
            host = spec.host_link
            latency += 2 * host.latency
            bandwidth = min(bandwidth, host.bandwidth)
            if src.kind == "gpu":
                resources.append(self._host_link_key(src.node, src.index, "d2h"))
            if dst.kind == "gpu":
                resources.append(self._host_link_key(dst.node, dst.index, "h2d"))
        return Path(PathKind.INTER_NODE, latency, bandwidth, tuple(resources))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ClusterTopology {self.num_nodes}x{self.node_spec.name} "
            f"({self.total_gpus} GPUs)>"
        )
