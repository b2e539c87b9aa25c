"""Target-region execution: the libomptarget entry points.

One :class:`OmpTargetRuntime` exists per rank.  It owns a present
table per bound device and a plugin (swappable — the DiOMP hook), and
implements:

* ``target(...)`` — the ``#pragma omp target`` body: map, launch,
  optionally wait, unmap,
* ``target_enter_data`` / ``target_exit_data`` — standalone data
  pragmas,
* ``omp_target_alloc`` / ``omp_target_free`` — explicit device memory,
* ``use_device_ptr`` — the device address of a mapped object (what the
  MPI baseline passes to CUDA-aware calls in Listing 2).

H2D/D2H transfer timing goes through the fabric's host↔GPU path, so
mapping cost is visible in every benchmark that maps data.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.world import RankContext
from repro.device.driver import Device
from repro.device.kernel import Kernel, KernelCost
from repro.omptarget.mapping import Map, MappingTable
from repro.omptarget.plugin import DevicePlugin, NativePlugin
from repro.sim import Future
from repro.util.errors import ConfigurationError, DeviceError


class OmpTargetRuntime:
    """Per-rank libomptarget instance."""

    def __init__(self, ctx: RankContext, plugin: Optional[DevicePlugin] = None) -> None:
        self.ctx = ctx
        self.plugin: DevicePlugin = plugin or NativePlugin()
        self.tables: List[MappingTable] = [MappingTable() for _ in ctx.devices]
        #: counts of H2D/D2H transfers performed (Fig. 1 bookkeeping)
        self.h2d_transfers = 0
        self.d2h_transfers = 0

    # -- helpers ---------------------------------------------------------------

    def device(self, device_num: int = 0) -> Device:
        if not 0 <= device_num < len(self.ctx.devices):
            raise ConfigurationError(
                f"device {device_num} out of range (rank has "
                f"{len(self.ctx.devices)} devices)"
            )
        return self.ctx.devices[device_num]

    def table(self, device_num: int = 0) -> MappingTable:
        self.device(device_num)
        return self.tables[device_num]

    def _transfer_h2d(self, entry, device: Device) -> None:
        def copy_in() -> None:
            if entry.device_buffer.is_virtual:
                return
            dst = entry.device_buffer.as_array(np.uint8)
            dst[:] = entry.host_obj.reshape(-1).view(np.uint8)

        fut = self.ctx.world.transfer(
            self.ctx.host,
            device.device_id,
            entry.device_buffer.size,
            operation="put",
            gpu_memory=True,
            on_complete=copy_in,
        )
        self.h2d_transfers += 1
        fut.wait()

    def _transfer_d2h(self, entry, device: Device) -> None:
        host_ep = self.ctx.host

        def copy_out() -> None:
            if entry.device_buffer.is_virtual:
                return
            flat = entry.host_obj.reshape(-1).view(np.uint8)
            flat[:] = entry.device_buffer.as_array(np.uint8)

        fut = self.ctx.world.transfer(
            device.device_id,
            host_ep,
            entry.device_buffer.size,
            operation="get",
            gpu_memory=True,
            on_complete=copy_out,
        )
        self.d2h_transfers += 1
        fut.wait()

    # -- data pragmas ---------------------------------------------------------

    def target_enter_data(self, maps: Sequence[Map], device_num: int = 0) -> None:
        """``#pragma omp target enter data map(...)``."""
        device = self.device(device_num)
        table = self.tables[device_num]
        for m in maps:
            entry = table.lookup(m.obj)
            if entry is not None:
                table.retain(m.obj)
                continue
            buf = self.plugin.data_alloc(
                device,
                m.nbytes,
                virtual=m.is_virtual,
                label=getattr(m.obj, "name", "") or "omp-map",
            )
            entry = table.insert(m.obj, buf)
            if m.kind.copies_in:
                # Virtual data pays the transfer time, real data also moves.
                self._transfer_h2d(entry, device)

    def target_exit_data(self, maps: Sequence[Map], device_num: int = 0) -> None:
        """``#pragma omp target exit data map(...)``."""
        device = self.device(device_num)
        table = self.tables[device_num]
        for m in maps:
            entry = table.release(m.obj)
            if entry is None:
                continue  # still referenced elsewhere
            if m.kind.copies_out:
                self._transfer_d2h(entry, device)
            self.plugin.data_delete(device, entry.device_buffer)

    def target_update_from(self, obj, device_num: int = 0) -> None:
        """``#pragma omp target update from(obj)``."""
        entry = self.tables[device_num].lookup(obj)
        if entry is None:
            raise DeviceError("target update of an unmapped object")
        self._transfer_d2h(entry, self.device(device_num))

    def target_update_to(self, obj, device_num: int = 0) -> None:
        """``#pragma omp target update to(obj)``."""
        entry = self.tables[device_num].lookup(obj)
        if entry is None:
            raise DeviceError("target update of an unmapped object")
        self._transfer_h2d(entry, self.device(device_num))

    # -- target regions ------------------------------------------------------------

    def target(
        self,
        name: str,
        cost: KernelCost,
        maps: Sequence[Map] = (),
        body: Optional[Callable[..., None]] = None,
        device_num: int = 0,
        nowait: bool = False,
        stream=None,
    ) -> Optional[Future]:
        """Execute one target region.

        Maps every clause, launches a kernel with the given cost model,
        and (unless ``nowait``) waits and applies end-of-region unmap
        semantics.  ``body`` — the kernel's host implementation —
        receives one typed device view per map, in clause order, and is
        skipped when any mapped object is virtual.

        With ``nowait=True`` the region's completion future is
        returned; the caller must later call
        :meth:`finish_nowait` with it to run the unmapping phase
        (mirrors an OpenMP ``taskwait``).
        """
        device = self.device(device_num)
        self.target_enter_data(maps, device_num)
        table = self.tables[device_num]
        views = []
        any_virtual = any(m.is_virtual for m in maps)
        if not any_virtual:
            for m in maps:
                buf = table.lookup(m.obj).device_buffer
                views.append(buf.as_array(m.obj.dtype).reshape(m.obj.shape))
        host_fn = None
        if body is not None and not any_virtual:
            host_fn = lambda *a: body(*views)  # noqa: E731 - deliberate capture
        kernel = Kernel(name=name, cost=lambda: cost, host_fn=host_fn)
        fut = device.launch(kernel, cost_args=(), stream=stream)
        if nowait:
            return _NowaitRegion(self, fut, maps, device_num)  # type: ignore[return-value]
        fut.wait()
        self.target_exit_data(maps, device_num)
        return None

    def finish_nowait(self, region: "_NowaitRegion") -> None:
        """Wait for a ``nowait`` region and run its unmap phase."""
        region.future.wait()
        self.target_exit_data(region.maps, region.device_num)

    # -- explicit device memory -------------------------------------------------

    def omp_target_alloc(self, size: int, device_num: int = 0, virtual: bool = False):
        """``omp_target_alloc``: unmapped device memory via the plugin."""
        return self.plugin.data_alloc(
            self.device(device_num), size, virtual=virtual, label="omp_target_alloc"
        )

    def omp_target_free(self, buffer, device_num: int = 0) -> None:
        self.plugin.data_delete(self.device(device_num), buffer)

    def use_device_ptr(self, obj, device_num: int = 0) -> int:
        """``#pragma omp target data use_device_ptr``: the device
        address the MPI baseline feeds to CUDA-aware calls."""
        return self.tables[device_num].device_ptr(obj)


class _NowaitRegion:
    """Handle for a ``nowait`` target region awaiting its unmap phase."""

    def __init__(self, rt: OmpTargetRuntime, future: Future, maps, device_num: int) -> None:
        self.rt = rt
        self.future = future
        self.maps = maps
        self.device_num = device_num
