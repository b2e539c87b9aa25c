"""The per-device driver facade and peer-access management.

:class:`Device` is what upper layers (libomptarget plugins, the DiOMP
runtime, XCCL) hold: memory space + default stream + kernel launch +
event creation for one physical GPU.  :class:`PeerAccessManager` is
the ``cudaDeviceEnablePeerAccess`` analogue: it validates that a pair
is peer-capable in the topology before the runtime may use the direct
path, which is exactly the check DiOMP's hierarchical path selection
performs (§3.2).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.device.kernel import Kernel
from repro.device.memory import DeviceBuffer, DeviceMemorySpace
from repro.device.stream import DeviceEvent, Stream
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import ClusterTopology, DeviceId, PathKind
from repro.sim import Future, Simulator, Tracer
from repro.util.errors import DeviceError


class Device:
    """One simulated GPU: memory, streams, kernel launch."""

    def __init__(
        self,
        sim: Simulator,
        device_id: DeviceId,
        spec: GPUSpec,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if device_id.kind != "gpu":
            raise DeviceError(f"Device requires a gpu DeviceId, got {device_id}")
        self.sim = sim
        self.device_id = device_id
        #: the device's label in stream names, traces and metrics
        self.name = str(device_id)
        self.spec = spec
        self.tracer = tracer
        self.memory = DeviceMemorySpace(spec.memory_bytes, device_name=self.name)
        self.memory.device_id = device_id
        #: the device's current fault plan; streams read it live at
        #: draw time (see Stream.faults), so installs and per-tenant
        #: swaps reach streams created earlier
        self.faults = None
        #: analytic-rank mode (set by World.enable_analytic): every
        #: allocation is forced virtual — timing-only, no numpy backing
        self.analytic = False
        self.default_stream = Stream(sim, device_name=self.name, faults_source=self)
        self.kernels_launched = 0

    # -- memory ------------------------------------------------------------

    def malloc(self, size: int, virtual: bool = False, label: str = "") -> DeviceBuffer:
        """Allocate device memory (``cuMemAlloc``)."""
        buf = self.memory.allocate(size, virtual=virtual or self.analytic, label=label)
        if self.tracer is not None:
            self.tracer.emit(
                "device", "malloc", device=self.name, size=size, label=label
            )
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        self.memory.free(buf)
        if self.tracer is not None:
            self.tracer.emit("device", "free", device=self.name, size=buf.size)

    # -- streams and events -------------------------------------------------

    def create_stream(self) -> Stream:
        return Stream(self.sim, device_name=self.name, faults_source=self)

    def create_event(self, name: str = "event") -> DeviceEvent:
        return DeviceEvent(self.sim, name=name)

    # -- execution ---------------------------------------------------------

    def launch(
        self,
        kernel: Kernel,
        *args: object,
        stream: Optional[Stream] = None,
        cost_args: Optional[tuple] = None,
    ) -> Future:
        """Launch ``kernel`` asynchronously on ``stream``.

        ``cost_args`` feeds the kernel's cost function (defaults to the
        launch args).  If the kernel has a host implementation it runs
        at completion time with the launch args — callers pass numpy
        views obtained from real device buffers.
        """
        stream = stream or self.default_stream
        cost = kernel.cost(*(cost_args if cost_args is not None else args))
        duration = self.spec.kernel_launch_overhead + cost.duration_on(self.spec)
        self.kernels_launched += 1
        if self.tracer is not None:
            self.tracer.emit(
                "device",
                "launch",
                device=self.name,
                kernel=kernel.name,
                duration=duration,
            )
        on_complete = None
        if kernel.host_fn is not None:
            host_fn = kernel.host_fn

            def on_complete() -> None:
                host_fn(*args)

        return stream.enqueue(duration, on_complete=on_complete, label=kernel.name)

    def local_copy(
        self,
        dst: DeviceBuffer,
        dst_offset: int,
        src: DeviceBuffer,
        src_offset: int,
        nbytes: int,
        stream: Optional[Stream] = None,
    ) -> Future:
        """Asynchronous device-local memcpy (D2D within this device)."""
        stream = stream or self.default_stream
        duration = nbytes / self.spec.mem_bandwidth

        def data_plane() -> None:
            dst.copy_within_device(dst_offset, src, src_offset, nbytes)

        return stream.enqueue(duration, on_complete=data_plane, label="memcpyD2D")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.device_id} {self.spec.name}>"


class PeerAccessManager:
    """Tracks which device pairs have peer access enabled.

    Mirrors the CUDA semantics the paper relies on: access must be
    enabled explicitly, is directional, requires a peer-capable link,
    and enabling twice is an error.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._enabled: Set[Tuple[DeviceId, DeviceId]] = set()

    def can_access_peer(self, device: DeviceId, peer: DeviceId) -> bool:
        """``cudaDeviceCanAccessPeer``: same node + peer-capable link."""
        if device.node != peer.node or device == peer:
            return False
        path = self.topology.path(device, peer)
        return path.kind is PathKind.PEER_DIRECT and path.peer_capable

    def enable_peer_access(self, device: DeviceId, peer: DeviceId) -> None:
        """``cudaDeviceEnablePeerAccess`` with CUDA's error behaviour."""
        if not self.can_access_peer(device, peer):
            raise DeviceError(f"peer access unsupported between {device} and {peer}")
        key = (device, peer)
        if key in self._enabled:
            raise DeviceError(f"peer access already enabled: {device} -> {peer}")
        self._enabled.add(key)

    def is_enabled(self, device: DeviceId, peer: DeviceId) -> bool:
        return (device, peer) in self._enabled

    def ensure_enabled(self, device: DeviceId, peer: DeviceId) -> bool:
        """Idempotent enable used by runtimes; returns True if this call
        newly enabled access (so the caller can charge setup cost)."""
        if self.is_enabled(device, peer):
            return False
        self.enable_peer_access(device, peer)
        return True
