"""The blocked Minimod kernel at block boundaries, and its memory bound.

Every Minimod kernel walks its planes in x blocks of
``_BLOCK_ELEMS // (ny * nz)`` planes.  At most test shapes a slice fits
in one block, so these tests shrink the block to one and to three
planes' worth and rerun the oracle checks of ``test_minimod_kernel``
under them: the Laplacian slices, the full stencil update (whose next
level must not be written over planes a later block still reads) and
the NaN-poison footprint of the plan's leapfrog kernels.
"""

import tracemalloc

import numpy as np
import pytest

import repro.apps.minimod as minimod
from repro.apps.minimod import MinimodConfig, _leapfrog_kernel, _stencil_kernel
from tests import test_minimod_kernel as kernel_tests
from tests.test_minimod_kernel import R, oracle_laplacian, random_field

SHAPES = [(3, 5), (5, 9), (8, 8), (9, 64), (64, 66)]


@pytest.fixture(params=[1, 3], ids=["1-plane", "3-plane"])
def block_planes(request, monkeypatch):
    """Set the block constant to ``planes`` planes of a ``ny x nz`` field."""
    planes = request.param

    def set_for(ny: int, nz: int) -> int:
        monkeypatch.setattr(minimod, "_BLOCK_ELEMS", planes * ny * nz)
        return planes

    return set_for


class TestSmallBlocks:
    @pytest.mark.parametrize("ny,nz", SHAPES)
    def test_laplacian_slices(self, block_planes, ny, nz):
        block_planes(ny, nz)
        kernel_tests.TestLaplacianOracle().test_kernel_slices_bit_identical(ny, nz)

    def test_every_slice_of_a_small_block(self, block_planes):
        block_planes(5, 9)
        kernel_tests.TestLaplacianOracle().test_every_slice_of_a_small_block()

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_smaller_radii(self, block_planes, radius):
        block_planes(4, 7)
        kernel_tests.TestLaplacianOracle().test_smaller_radii(radius)

    @pytest.mark.parametrize("lnx", [2 * R, 2 * R + 1, 32])
    def test_footprint(self, block_planes, lnx):
        block_planes(9, 10)
        kernel_tests.TestKernelFootprint().test_reads_and_writes_match_the_plan(lnx)

    @pytest.mark.parametrize("lnx", [2 * R, 2 * R + 1, 32])
    @pytest.mark.parametrize("ny,nz", [(9, 10), (64, 64)])
    def test_stencil_update(self, block_planes, lnx, ny, nz):
        """One full-slab step against the oracle: the next level lands in
        the core of ``u``, the old level in the core of ``u_prev``, and
        no halo plane changes."""
        planes = block_planes(ny, nz)
        assert planes < lnx
        cfg = MinimodConfig(nx=4 * lnx, ny=ny, nz=nz, steps=1)
        rng = np.random.default_rng(lnx * 1000 + ny)
        shape = (lnx + 2 * R, ny, nz)
        u, prev = random_field(rng, shape), random_field(rng, shape)
        core = slice(R, R + lnx)
        want = (
            2.0 * u[core] - prev[core] + cfg.courant2 * oracle_laplacian(u, R)
        ).astype(cfg.dtype)
        got_u, got_prev = u.copy(), prev.copy()
        _stencil_kernel(cfg, lnx).host_fn(got_u, got_prev)
        assert got_u[core].tobytes() == want.tobytes()
        assert got_prev[core].tobytes() == u[core].tobytes()
        halo = [p for p in range(shape[0]) if not R <= p < R + lnx]
        assert got_u[halo].tobytes() == u[halo].tobytes()
        assert got_prev[halo].tobytes() == prev[halo].tobytes()


#: the ``apps`` benchmark's slab: 32 core planes of 64 x 64 plus 2 x 4 halos
APPS_LNX, APPS_PLANE = 32, (64, 64)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocation:
    """A kernel call allocates per block, not per slab: each peaks below
    2 MiB on the 40 x 64 x 64 float32 slab (one float32 slab is 640 KiB)."""

    LIMIT = 2 << 20

    def setup_method(self):
        self.cfg = MinimodConfig(nx=8 * APPS_LNX, ny=APPS_PLANE[0], nz=APPS_PLANE[1], steps=1)
        rng = np.random.default_rng(0)
        shape = (APPS_LNX + 2 * R,) + APPS_PLANE
        self.u, self.prev = random_field(rng, shape), random_field(rng, shape)

    def test_stencil_call(self):
        kernel = _stencil_kernel(self.cfg, APPS_LNX)
        assert traced_peak(kernel.host_fn, self.u, self.prev) < self.LIMIT

    def test_interior_leapfrog_call(self):
        kernel = _leapfrog_kernel(self.cfg, R, APPS_LNX - R)
        assert traced_peak(kernel.host_fn, self.u, self.prev) < self.LIMIT
