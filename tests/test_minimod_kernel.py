"""The Minimod stencil kernels against an independent oracle.

``minimod_reference`` shares ``_laplacian`` with every Minimod variant, so an
``allclose`` against it cannot catch a kernel bug.  These tests pin the
kernel three ways:

* byte equality with the plain full-field formulation kept below
  (zero-filled shifted copies), for whole slabs and every slice the
  variants use;
* the sha256 of every Minimod variant's assembled field at the
  benchmark configuration;
* a NaN-poison footprint check: each leapfrog kernel of the Minimod
  plan reads only the planes its ``reads=`` declare and writes only
  its ``writes=``, with the oracle's update in them.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.apps.minimod import (
    _COEFFS,
    MinimodConfig,
    _field_shape,
    _laplacian,
    minimod_reference,
    run_minimod,
)
from repro.cluster import World
from repro.hardware import platform_a
from repro.plan import run_minimod_plan
from repro.plan.apps import minimod_plan

R = 4


def oracle_laplacian(u: np.ndarray, radius: int) -> np.ndarray:
    """The full-field Laplacian written with zero-filled shifted copies."""
    core = u[radius:-radius]
    lap = 3.0 * _COEFFS[0] * core
    for d in range(1, radius + 1):
        lap = lap + _COEFFS[d] * (u[radius + d :][: core.shape[0]] + u[radius - d : -radius - d])
        shifted_yp = np.zeros_like(core)
        shifted_yp[:, :-d, :] = core[:, d:, :]
        shifted_ym = np.zeros_like(core)
        shifted_ym[:, d:, :] = core[:, :-d, :]
        lap = lap + _COEFFS[d] * (shifted_yp + shifted_ym)
        shifted_zp = np.zeros_like(core)
        shifted_zp[:, :, :-d] = core[:, :, d:]
        shifted_zm = np.zeros_like(core)
        shifted_zm[:, :, d:] = core[:, :, :-d]
        lap = lap + _COEFFS[d] * (shifted_zp + shifted_zm)
    return lap


def random_field(rng, shape) -> np.ndarray:
    """A sparse float32 field: mostly +0.0 and -0.0 entries, so partial
    sums are often a signed zero and the sign of every zero term shows."""
    u = rng.standard_normal(shape).astype(np.float32)
    draw = rng.random(shape)
    u[draw < 0.7] = 0.0
    u[draw < 0.35] = -0.0
    return u


def kernel_slices(lnx: int):
    """Every ``[lo, hi)`` the plan path and ``minimod_diomp_overlap``
    launch a leapfrog kernel on, plus the whole slab."""
    slices = [(0, lnx)]
    if lnx > 2 * R:
        slices += [(R, lnx - R), (0, R), (lnx - R, lnx)]
    return slices


class TestLaplacianOracle:
    @pytest.mark.parametrize("ny,nz", itertools.product((3, 5, 8, 9, 64, 66), repeat=2))
    def test_kernel_slices_bit_identical(self, ny, nz):
        rng = np.random.default_rng(ny * 100 + nz)
        for lnx in (2 * R, 2 * R + 1, 32):
            u = random_field(rng, (lnx + 2 * R, ny, nz))
            full = oracle_laplacian(u, R)
            assert _laplacian(u, R).tobytes() == full.tobytes()
            for lo, hi in kernel_slices(lnx):
                got = _laplacian(u, R, lo, hi)
                assert got.dtype == full.dtype
                assert got.tobytes() == full[lo:hi].tobytes(), (lnx, lo, hi)

    def test_every_slice_of_a_small_block(self):
        rng = np.random.default_rng(7)
        lnx = 2 * R + 3
        u = random_field(rng, (lnx + 2 * R, 5, 9))
        full = oracle_laplacian(u, R)
        for lo in range(lnx):
            for hi in range(lo + 1, lnx + 1):
                assert _laplacian(u, R, lo, hi).tobytes() == full[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_smaller_radii(self, radius):
        rng = np.random.default_rng(radius)
        u = random_field(rng, (6 + 2 * radius, 4, 7))
        assert _laplacian(u, radius).tobytes() == oracle_laplacian(u, radius).tobytes()


#: sha256 of the assembled 12-step field at the ``apps`` benchmark
#: configuration (nx=256, nz=64, 8 ranks); every variant and the
#: single-domain reference agree byte for byte.
FIELD_SHA256 = {
    64: "fccdc939b634adccd0032fb3ad4cc69c2c38ab2c4d0d2d734ed0cb080ceb1dbd",
    66: "2ae368a5a58775f3e05da8c333a756c65168f3184b8b46fa74b1a94b0520212b",
}


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def assembled(res) -> np.ndarray:
    return np.concatenate([r["u"] for r in sorted(res.results, key=lambda r: r["rank"])])


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="the digests were taken under NumPy 2 scalar promotion",
)
@pytest.mark.parametrize("ny", sorted(FIELD_SHA256))
class TestFieldDigests:
    def cfg(self, ny):
        return MinimodConfig(nx=256, ny=ny, nz=64, steps=12)

    def world(self):
        return World(platform_a(with_quirk=False), num_nodes=2)

    def test_reference(self, ny):
        assert sha256(minimod_reference(self.cfg(ny))) == FIELD_SHA256[ny]

    @pytest.mark.parametrize("impl", ["diomp", "mpi", "diomp-overlap"])
    def test_hand_written_variants(self, ny, impl):
        res = run_minimod(self.world(), self.cfg(ny), impl=impl)
        assert len(res.results) == 8
        assert sha256(assembled(res)) == FIELD_SHA256[ny]

    def test_plan(self, ny):
        res = run_minimod_plan(self.world(), self.cfg(ny), backend="gasnet")
        assert sha256(assembled(res)) == FIELD_SHA256[ny]


#: a float32 signalling NaN: any arithmetic on it raises under
#: ``np.errstate(invalid="raise")``, while copies keep its bits
SNAN32 = np.uint32(0x7FA00000)


class TestKernelFootprint:
    """Poison every plane a kernel does not declare with a signalling
    NaN: any arithmetic read of one raises, the planes the kernel
    writes come out byte-identical to an unpoisoned run (and to the
    oracle's update), and nothing else changes."""

    @pytest.mark.parametrize("lnx", [2 * R, 2 * R + 1, 32])
    def test_reads_and_writes_match_the_plan(self, lnx):
        nranks = 4
        cfg = MinimodConfig(nx=lnx * nranks, ny=9, nz=10, steps=1)
        plan = minimod_plan(cfg, nranks)
        computes = [op for op in plan.body if op.kind == "compute"]
        expected = ["full-slab"] if lnx <= 2 * R else ["interior", "left-slab", "right-slab"]
        assert [op.op_id for op in computes] == expected
        shape = _field_shape(cfg, lnx)
        plane = cfg.plane_elems * cfg.itemsize
        rng = np.random.default_rng(lnx)

        def planes(access):
            assert access.offset % plane == 0 and access.nbytes % plane == 0
            return range(access.offset // plane, access.end() // plane)

        for op in computes:
            read = {0: set(), 1: set()}
            for access in op.reads:
                read[access.buf.rot].update(planes(access))
            (write,) = op.writes
            assert write.buf.rot == 1
            w = slice(planes(write).start, planes(write).stop)
            outside = [p for p in range(shape[0]) if not w.start <= p < w.stop]

            clean = [random_field(rng, shape), random_field(rng, shape)]
            cur, prev = clean[0][w].copy(), clean[1][w].copy()
            lap = oracle_laplacian(clean[0], R)[w.start - R : w.stop - R]
            want = (2.0 * cur - prev + cfg.courant2 * lap).astype(cfg.dtype)
            poisoned = [a.copy() for a in clean]
            for rot, buf in enumerate(poisoned):
                for p in range(shape[0]):
                    if p not in read[rot]:
                        buf[p].view(np.uint32)[...] = SNAN32
            before = [[a.copy() for a in run] for run in (clean, poisoned)]

            op.kernel.host_fn(*clean)
            with np.errstate(invalid="raise"):
                op.kernel.host_fn(*poisoned)

            assert clean[1][w].tobytes() == want.tobytes(), op.op_id
            assert poisoned[1][w].tobytes() == want.tobytes(), op.op_id
            for run, (u0, p0) in zip((clean, poisoned), before):
                assert run[0].tobytes() == u0.tobytes(), op.op_id
                assert run[1][outside].tobytes() == p0[outside].tobytes(), op.op_id
