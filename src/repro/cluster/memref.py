"""Uniform memory references for communication layers.

A :class:`MemRef` names a contiguous byte range living either in a
host's memory (a numpy array pinned to a node) or in device memory (a
:class:`~repro.device.DeviceBuffer` slice).  GASNet, GPI-2, mini-MPI
and OMPCCL all move data between MemRefs, so "CUDA-awareness" is
uniform: the fabric consults ``endpoint`` to pick the physical path
and ``gpu_memory`` to apply NIC quirks.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.device.memory import DeviceBuffer
from repro.hardware.topology import DeviceId
from repro.util.errors import CommunicationError


class MemRef:
    """A located, contiguous byte range (host or device)."""

    def __init__(
        self,
        endpoint: DeviceId,
        storage: Union[np.ndarray, DeviceBuffer],
        offset: int,
        nbytes: int,
    ) -> None:
        if offset < 0 or nbytes < 0:
            raise CommunicationError(f"bad memref range offset={offset} nbytes={nbytes}")
        total = storage.size if isinstance(storage, DeviceBuffer) else storage.nbytes
        if offset + nbytes > total:
            raise CommunicationError(
                f"memref range [{offset}, {offset + nbytes}) exceeds storage of {total} bytes"
            )
        self.endpoint = endpoint
        self.storage = storage
        self.offset = offset
        self.nbytes = nbytes

    # -- constructors -------------------------------------------------------

    @classmethod
    def host(cls, node: int, array: np.ndarray, offset: int = 0, nbytes: int = -1) -> "MemRef":
        """Reference into a host numpy array on ``node``."""
        if not isinstance(array, np.ndarray):
            raise CommunicationError(f"host memref needs a numpy array, got {type(array)}")
        if not array.flags["C_CONTIGUOUS"]:
            raise CommunicationError("host memref requires a C-contiguous array")
        if nbytes < 0:
            nbytes = array.nbytes - offset
        return cls(DeviceId("host", node, 0), array, offset, nbytes)

    @classmethod
    def device(cls, buffer: DeviceBuffer, offset: int = 0, nbytes: int = -1) -> "MemRef":
        """Reference into a device buffer."""
        dev_id = getattr(buffer.space, "device_id", None)
        if dev_id is None:
            raise CommunicationError(
                "device buffer's memory space is not bound to a DeviceId "
                "(allocate through a Device, not a bare DeviceMemorySpace)"
            )
        if nbytes < 0:
            nbytes = buffer.size - offset
        return cls(dev_id, buffer, offset, nbytes)

    # -- properties --------------------------------------------------------

    @property
    def is_device(self) -> bool:
        return self.endpoint.kind == "gpu"

    @property
    def is_virtual(self) -> bool:
        return isinstance(self.storage, DeviceBuffer) and self.storage.is_virtual

    def view(self) -> np.ndarray:
        """A uint8 numpy view of the referenced bytes (no copy)."""
        if isinstance(self.storage, DeviceBuffer):
            return self.storage.as_array(np.uint8, count=self.nbytes, offset=self.offset)
        flat = self.storage.reshape(-1).view(np.uint8)
        return flat[self.offset : self.offset + self.nbytes]

    def typed(self, dtype: np.dtype) -> np.ndarray:
        """A typed view of the referenced bytes."""
        dtype = np.dtype(dtype)
        if self.nbytes % dtype.itemsize:
            raise CommunicationError(
                f"range of {self.nbytes} bytes is not a multiple of {dtype} itemsize"
            )
        return self.view().view(dtype)

    def slice(self, offset: int, nbytes: int) -> "MemRef":
        """A sub-range of this reference."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CommunicationError(
                f"slice [{offset}, {offset + nbytes}) exceeds memref of {self.nbytes} bytes"
            )
        return MemRef(self.endpoint, self.storage, self.offset + offset, nbytes)

    # -- data plane -----------------------------------------------------------

    def copy_from(self, src: "MemRef") -> None:
        """Copy ``src``'s bytes into this reference (sizes must match).

        Virtual/virtual copies are timing-only no-ops; mixing virtual
        and real endpoints is rejected so data is never silently lost.
        """
        if src.nbytes != self.nbytes:
            raise CommunicationError(
                f"size mismatch in copy: src={src.nbytes} dst={self.nbytes}"
            )
        virtual = self.is_virtual
        if virtual != src.is_virtual:
            raise CommunicationError("cannot copy between real and virtual memory")
        if not virtual:
            self.view()[:] = src.view()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemRef {self.endpoint} +{self.offset} {self.nbytes}B>"
