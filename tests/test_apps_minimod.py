"""Tests for the Minimod proxy application."""

import numpy as np
import pytest

from repro.apps import MinimodConfig, minimod_reference, run_minimod
from repro.apps.minimod import _initial_slab
from repro.cluster import World
from repro.hardware import platform_a, platform_c
from repro.util.errors import ConfigurationError


def assemble_u(results):
    ordered = sorted(results, key=lambda r: r["rank"])
    return np.concatenate([r["u"] for r in ordered])


class TestReference:
    def test_wave_spreads_from_source(self):
        cfg = MinimodConfig(nx=16, ny=12, nz=12, steps=3)
        u = minimod_reference(cfg)
        assert u.shape == (16, 12, 12)
        # Energy must have spread beyond the source cell.
        assert np.count_nonzero(u) > 1
        assert np.isfinite(u).all()

    def test_zero_steps_is_initial_field(self):
        cfg = MinimodConfig(nx=8, ny=8, nz=8, steps=0)
        u = minimod_reference(cfg)
        assert u[4, 4, 4] == 1.0
        assert np.count_nonzero(u) == 1


class TestCorrectness:
    @pytest.mark.parametrize("impl", ["diomp", "mpi"])
    def test_matches_reference_4_ranks(self, impl):
        cfg = MinimodConfig(nx=32, ny=10, nz=10, steps=4)
        w = World(platform_a(with_quirk=False), num_nodes=1)
        res = run_minimod(w, cfg, impl=impl)
        np.testing.assert_allclose(
            assemble_u(res.results), minimod_reference(cfg), rtol=1e-5, atol=1e-7
        )

    @pytest.mark.parametrize("impl", ["diomp", "mpi"])
    def test_matches_reference_multi_node(self, impl):
        cfg = MinimodConfig(nx=48, ny=8, nz=8, steps=5)
        w = World(platform_a(with_quirk=False), num_nodes=2)
        res = run_minimod(w, cfg, impl=impl)
        np.testing.assert_allclose(
            assemble_u(res.results), minimod_reference(cfg), rtol=1e-5, atol=1e-7
        )

    def test_single_rank_matches_reference(self):
        cfg = MinimodConfig(nx=16, ny=8, nz=8, steps=4)
        w = World(platform_c(), num_nodes=1)  # one GPU total
        res = run_minimod(w, cfg, impl="diomp")
        np.testing.assert_allclose(
            assemble_u(res.results), minimod_reference(cfg), rtol=1e-5, atol=1e-7
        )

    def test_slab_thinner_than_radius_rejected(self):
        cfg = MinimodConfig(nx=8, ny=8, nz=8, steps=1)  # lnx=2 < radius
        w = World(platform_a(with_quirk=False), num_nodes=1)
        with pytest.raises(ConfigurationError, match="radius"):
            run_minimod(w, cfg)


class TestConfig:
    @pytest.mark.parametrize("radius", [0, 5])
    def test_radius_outside_the_coefficients_rejected(self, radius):
        with pytest.raises(ConfigurationError, match="radius"):
            MinimodConfig(nx=16, ny=8, nz=8, steps=1, radius=radius)

    @pytest.mark.parametrize("radius", [1, 4])
    def test_radius_bounds_accepted(self, radius):
        assert MinimodConfig(nx=16, ny=8, nz=8, steps=1, radius=radius).radius == radius


class TestInitialSlab:
    @pytest.mark.parametrize("nx,nranks", [(16, 4), (48, 8), (40, 8), (8, 1)])
    def test_slabs_tile_the_initial_field(self, nx, nranks):
        cfg = MinimodConfig(nx=nx, ny=6, nz=7, steps=0)
        field = np.zeros((nx, 6, 7), dtype=cfg.dtype)
        field[nx // 2, 3, 3] = 1.0
        slabs = [_initial_slab(cfg, rank, nranks) for rank in range(nranks)]
        assert all(s.shape == (nx // nranks, 6, 7) and s.dtype == cfg.dtype for s in slabs)
        assert np.concatenate(slabs).tobytes() == field.tobytes()


class TestTiming:
    def _elapsed(self, impl, nodes, nx=240):
        cfg = MinimodConfig(nx=nx, ny=240, nz=240, steps=5, execute=False)
        w = World(platform_a(with_quirk=False), num_nodes=nodes)
        res = run_minimod(w, cfg, impl=impl)
        return max(r["elapsed"] for r in res.results)

    def test_diomp_beats_mpi_single_node(self):
        """§4.5: 'DiOMP demonstrates superior performance over MPI in
        single-node, multi-device environments' (IPC vs host staging)."""
        assert self._elapsed("diomp", 1) < self._elapsed("mpi", 1)

    def test_diomp_not_slower_multi_node(self):
        assert self._elapsed("diomp", 2) <= self._elapsed("mpi", 2) * 1.01

    def test_scaling_reduces_time(self):
        """A compute-heavy slab (nx=1200) scales; the tiny default grid
        would be synchronization-bound."""
        assert self._elapsed("diomp", 2, nx=1200) < self._elapsed(
            "diomp", 1, nx=1200
        )
