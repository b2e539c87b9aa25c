"""World construction and rank placement."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.device import Device, PeerAccessManager
from repro.hardware.platforms import PlatformSpec
from repro.hardware.topology import ClusterTopology, DeviceId
from repro.network import Fabric
from repro.obs import Observability
from repro.sim import Barrier, Future, Simulator, Tracer
from repro.util.errors import ConfigurationError


class RankContext:
    """Everything one rank sees: its placement and its devices.

    Communication layers attach their per-rank endpoints onto this
    object at world construction (``ctx.mpi``, ``ctx.diomp``, ...), so
    application code receives a single handle.
    """

    def __init__(self, world: "World", rank: int, node: int, devices: List[Device]) -> None:
        self.world = world
        self.rank = rank
        self.node = node
        self.devices = devices
        #: populated by the communication layers when installed
        self.mpi = None
        self.diomp = None

    @property
    def nranks(self) -> int:
        return len(self.world.ranks)

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    @property
    def device(self) -> Device:
        """The rank's primary device (first bound GPU)."""
        return self.devices[0]

    @property
    def host(self) -> DeviceId:
        return self.world.topology.host(self.node)

    @property
    def host_threads(self) -> int:
        """CPU threads this rank's process may use (the node's cores
        split across its ranks — §3.3's deployment trade-off)."""
        cores = self.world.platform.node.cpu.cores
        return max(1, cores // self.world.ranks_per_node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        devs = ",".join(str(d.device_id) for d in self.devices)
        return f"<RankContext rank={self.rank} node={self.node} devices=[{devs}]>"


def check_gang_shape(
    platform: PlatformSpec,
    nodes: Sequence[int],
    ranks_per_node: Optional[int],
    devices_per_rank: int,
) -> int:
    """Validate a gang of ``ranks_per_node`` ranks on each of ``nodes``,
    each bound to ``devices_per_rank`` consecutive GPUs, and return
    ``ranks_per_node`` (``None`` means as many as the GPUs allow).

    The product must not exceed the node's GPU count — exactly the
    constraint a real job launcher enforces.
    """
    if not nodes:
        raise ConfigurationError("a gang needs at least one node")
    if len(set(nodes)) != len(nodes):
        raise ConfigurationError(f"duplicate nodes in gang: {tuple(nodes)}")
    if devices_per_rank <= 0:
        raise ConfigurationError("devices_per_rank must be positive")
    gpn = platform.gpus_per_node
    if ranks_per_node is None:
        ranks_per_node = gpn // devices_per_rank
    if ranks_per_node <= 0:
        raise ConfigurationError("ranks_per_node must be positive")
    if ranks_per_node * devices_per_rank > gpn:
        raise ConfigurationError(
            f"{ranks_per_node} ranks x {devices_per_rank} devices "
            f"exceed {gpn} GPUs per node"
        )
    return ranks_per_node


class World:
    """A fully wired simulated cluster plus rank placement.

    ``ranks_per_node`` ranks are placed on each node, each bound to
    ``devices_per_rank`` GPUs (see :func:`check_gang_shape`).  A world
    is the scope the whole runtime stack receives: its ranks,
    observability, peer access, barrier and fault plan.  A
    :class:`~repro.cluster.service.TenantView` is the same scope over
    one gang of a shared world.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        num_nodes: int,
        ranks_per_node: Optional[int] = None,
        devices_per_rank: int = 1,
        tracer: Optional[Tracer] = None,
        obs: Optional[Observability] = None,
        faults=None,
        analytic: bool = False,
    ) -> None:
        self.platform = platform
        self.sim = Simulator()
        # Note: `tracer or Tracer()` would discard a provided-but-empty
        # tracer (Tracer defines __len__), so test identity explicitly.
        self.tracer = tracer if tracer is not None else Tracer()
        self.tracer.bind_clock(lambda: self.sim.now)
        #: the world's observability layer (metrics + span profiler);
        #: pass Observability(enabled=False) to turn it off wholesale
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(lambda: self.sim.now)
        engine = getattr(self.obs, "engine", None)
        if engine is not None and engine.enabled:
            # Engine self-profiling: the simulator accounts host
            # wall-clock per dispatch into obs.engine (sim.* gauges).
            self.sim.profiler = engine
        self.topology: ClusterTopology = platform.cluster(num_nodes)
        self.fabric = Fabric(self.sim, self.topology, tracer=self.tracer)
        #: one Device per physical GPU, keyed by DeviceId
        self.devices: Dict[DeviceId, Device] = {
            dev_id: Device(self.sim, dev_id, platform.node.gpu, tracer=self.tracer)
            for dev_id in self.topology.all_gpus()
        }
        self._place(
            range(num_nodes), ranks_per_node, devices_per_rank, self.devices, "world-barrier"
        )
        if faults is not None:
            self.install_fault_plan(faults)
        #: analytic-rank mode: allocations are timing-only (virtual)
        self.analytic = False
        if analytic:
            self.enable_analytic()

    def _place(
        self,
        nodes: Sequence[int],
        ranks_per_node: Optional[int],
        devices_per_rank: int,
        devices: Dict[DeviceId, Device],
        barrier_name: str,
    ) -> None:
        """Validate the gang shape, bind ranks ``0..k-1`` to GPUs of
        ``devices`` on ``nodes``, and give the scope fresh peer access,
        barrier and (empty) fault plan."""
        ranks_per_node = check_gang_shape(
            self.platform, nodes, ranks_per_node, devices_per_rank
        )
        self.ranks_per_node = ranks_per_node
        self.devices_per_rank = devices_per_rank
        self.peer_access = PeerAccessManager(self.topology)
        self.ranks: List[RankContext] = []
        for node in nodes:
            for lr in range(ranks_per_node):
                first = lr * devices_per_rank
                bound = [
                    devices[self.topology.gpu(node, first + d)]
                    for d in range(devices_per_rank)
                ]
                self.ranks.append(RankContext(self, len(self.ranks), node, bound))
        #: device -> owning rank, built once (device_owner sits on the
        #: IPC bookkeeping path; a linear scan there is O(ranks*devices))
        self._device_owner: Dict[DeviceId, RankContext] = {
            dev.device_id: ctx for ctx in self.ranks for dev in ctx.devices
        }
        #: scope-wide rendezvous used by runtimes for init/teardown
        self.global_barrier = Barrier(self.sim, len(self.ranks), name=barrier_name)
        #: the installed FaultPlan, or None (perfect hardware)
        self.fault_plan = None

    def enable_analytic(self) -> None:
        """Switch the world to analytic-rank mode.

        Every device allocation — direct ``malloc`` or through the
        DiOMP symmetric/asymmetric allocators — becomes *virtual*:
        address-space bookkeeping and timing are exact, but no numpy
        backing is materialized and collective/RMA data application is
        skipped.  This is the data-free sweep mode for 1024-rank
        scaling runs, where real buffers would cost gigabytes without
        ever being inspected.  Idempotent; must be enabled before the
        program allocates.
        """
        self.analytic = True
        for dev in self.devices.values():
            dev.analytic = True

    def install_fault_plan(self, plan) -> None:
        """Arm a :class:`~repro.faults.FaultPlan` on this scope: every
        transfer issued through :meth:`transfer` (which covers both
        conduits and intra-node RMA) and stream synchronization on the
        scope's devices.  Conduits check ``world.fault_plan`` at issue
        time to switch their retry/backoff recovery on."""
        plan.bind(self.obs)
        self.fault_plan = plan
        for dev in self.devices.values():
            # Streams (default and created, past and future) read the
            # device's plan live at draw time — see Stream.faults.
            dev.faults = plan

    def transfer(self, src: DeviceId, dst: DeviceId, nbytes: int, **kwargs) -> Future:
        """:meth:`Fabric.transfer` under this scope's fault plan — the
        one place a transfer is handed the plan it draws from."""
        return self.fabric.transfer(src, dst, nbytes, faults=self.fault_plan, **kwargs)

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    def device_owner(self, dev_id: DeviceId) -> RankContext:
        """The rank a GPU is bound to (for IPC-path bookkeeping)."""
        try:
            return self._device_owner[dev_id]
        except KeyError:
            raise ConfigurationError(
                f"device {dev_id} is not bound to any rank"
            ) from None

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.ranks[rank_a].node == self.ranks[rank_b].node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<World platform={self.platform.name} nodes={self.topology.num_nodes} "
            f"ranks={self.nranks} devices_per_rank={self.devices_per_rank}>"
        )
