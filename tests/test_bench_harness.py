"""Tests for the benchmark harness itself (report, micro, app, fig glue)."""

import math

import pytest

from repro.bench import appbench, collective, microbench, programmability, registration
from repro.bench.report import Series, Table, fmt_gbs, fmt_ratio, fmt_speedup, fmt_us, series_table
from repro.hardware import get_platform, platform_a, platform_c
from repro.util.errors import ConfigurationError
from repro.util.units import KiB


class TestReport:
    def test_table_renders_aligned(self):
        t = Table("Title", ["a", "bb"])
        t.add_row(1, "x")
        t.add_row(22, "yy")
        text = t.render()
        assert "Title" in text
        lines = text.splitlines()
        assert len({len(line) for line in lines[2:]}) == 1  # aligned widths

    def test_table_row_arity_checked(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row(1)

    def test_series_length_checked(self):
        with pytest.raises(ValueError, match="mismatch"):
            Series("s", [1, 2], [1.0])

    def test_series_table_requires_shared_axis(self):
        s1 = Series("a", [1, 2], [0.1, 0.2])
        s2 = Series("b", [1, 3], [0.1, 0.2])
        with pytest.raises(ValueError, match="different x"):
            series_table("t", "x", str, [s1, s2])

    def test_formatters(self):
        assert fmt_us(2.5e-6) == "2.50"
        assert fmt_gbs(25e9) == "25.00"
        assert fmt_ratio(0.5) == "+0.500"
        assert fmt_ratio(-0.25) == "-0.250"
        assert fmt_speedup(2.0) == "2.00x"


class TestMicrobench:
    def test_latency_monotone_in_size(self):
        pts = microbench.diomp_p2p(
            platform_a(with_quirk=False), "put", [64, 8 * KiB], reps=2
        )
        assert pts[0][1] < pts[1][1]

    def test_mpi_latency_above_diomp(self):
        sizes = [256]
        d = microbench.diomp_p2p(platform_a(with_quirk=False), "put", sizes, reps=2)
        m = microbench.mpi_p2p(platform_a(with_quirk=False), "put", sizes, reps=2)
        assert d[0][1] < m[0][1]

    def test_fence_parks_once_per_call(self):
        """Every fence of the seeded put/get mix has work pending and
        parks its task exactly once (the regress gate's figure)."""
        for seed in (1, 7):
            assert microbench.fence_parks_per_call(
                platform_a(with_quirk=False), seed=seed
            ) == 1.0

    def test_bad_op_rejected(self):
        with pytest.raises(ConfigurationError):
            microbench.diomp_p2p(platform_a(), "send", [64])
        with pytest.raises(ConfigurationError):
            microbench.mpi_p2p(platform_a(), "send", [64])

    def test_conduit_sweep_requires_infiniband(self):
        with pytest.raises(ConfigurationError, match="InfiniBand"):
            microbench.conduit_bandwidth_sweep(platform_a(), sizes=[64], reps=1)

    def test_bandwidth_sweep_keys(self):
        out = microbench.bandwidth_sweep(
            platform_c(), sizes=[4 * KiB], reps=1, window=2
        )
        assert set(out) == {"diomp_put", "diomp_get", "mpi_put", "mpi_get"}
        for pts in out.values():
            assert pts[0][1] > 0


class TestCollectiveBench:
    def test_ratio_heatmap_single_cell(self):
        grid = collective.ratio_heatmap(
            platforms=("C",), ops=("bcast",), sizes=[128 * KiB], reps=1
        )
        ((letter, op), cells), = grid.items()
        assert letter == "C" and op == "bcast"
        assert math.isfinite(cells[0][1])

    def test_invalid_op_rejected(self):
        with pytest.raises(ConfigurationError):
            collective.diomp_collective_latency(platform_c(), 2, "alltoall", 1024)
        with pytest.raises(ConfigurationError):
            collective.mpi_collective_latency(platform_c(), 2, "alltoall", 1024)


class TestAppBench:
    def test_app_platform_strips_quirk(self):
        assert appbench.app_platform("A").node.nic.quirk is None
        assert get_platform("A").node.nic.quirk is not None

    def test_cannon_speedups_shape(self):
        out = appbench.cannon_speedups("A", nodes_sweep=(1, 2), n=4096)
        assert set(out) == {"diomp", "mpi"}
        for series in out.values():
            assert series[0] == (4, 1.0)  # baseline normalizes to 1

    def test_minimod_speedups_baseline_is_mpi(self):
        # Grid large enough to amortize the one-time IPC-open costs.
        out = appbench.minimod_speedups(
            "A", nodes_sweep=(1, 2), grid=240, steps=5
        )
        assert out["mpi"][0][1] == pytest.approx(1.0)
        assert out["diomp"][0][1] > 1.0  # DiOMP beats MPI on one node

    def test_unknown_platform_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            appbench.cannon_scaling("C", "diomp")


class TestProgrammability:
    def test_measures_both_variants(self):
        data = programmability.measure_halo_exchange()
        assert data["diomp"].sloc < data["mpi"].sloc
        assert data["diomp"].api_calls < data["mpi"].api_calls

    def test_sloc_ignores_formatting(self):
        assert programmability._sloc("foo(\n  a,\n  b,\n)\nbar()") == 2
        assert programmability._sloc("# comment\n\nx = 1") == 1


class TestRegistration:
    def test_compare_counts(self):
        data = registration.compare(n_buffers=4, size=64 * KiB)
        assert data["baseline"].registrations == 4
        assert data["diomp"].registrations == 1
        assert data["diomp"].setup_time <= data["baseline"].setup_time
