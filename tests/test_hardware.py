"""Tests for hardware specs, nodes, topology and platform factories."""

import dataclasses

import pytest

from repro.hardware import (
    A100,
    MI250X_GCD,
    GH200,
    NVLINK3,
    PCIE4_X16,
    SLINGSHOT_11,
    DeviceId,
    GPUSpec,
    NICQuirk,
    NodeSpec,
    PathKind,
    get_platform,
    platform_a,
    platform_b,
    platform_c,
)
from repro.hardware.node import all_to_all, mi250x_wiring, no_direct_link
from repro.hardware.catalog import EPYC_7763
from repro.util.errors import ConfigurationError
from repro.util.units import MiB


class TestSpecs:
    def test_gpu_flops_properties(self):
        assert A100.fp64_flops == pytest.approx(9.7e12)
        assert A100.gemm_flops == pytest.approx(19.5e12)

    def test_invalid_gpu_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bad",
                vendor="nvidia",
                memory_bytes=0,
                mem_bandwidth=1.0,
                fp64_tflops=1.0,
                gemm_tflops=1.0,
                kernel_launch_overhead=0.0,
                ipc_open_overhead=0.0,
            )

    def test_quirk_validation(self):
        with pytest.raises(ConfigurationError):
            NICQuirk(name="q", operation="put", bandwidth_factor=0.0)
        with pytest.raises(ConfigurationError):
            NICQuirk(name="q", operation="frobnicate", bandwidth_factor=0.5)

    def test_quirk_applies(self):
        q = NICQuirk(name="q", operation="put", bandwidth_factor=0.3)
        assert q.applies("put", gpu_memory=True)
        assert not q.applies("get", gpu_memory=True)
        assert not q.applies("put", gpu_memory=False)

    def test_nic_effective_bandwidth_with_quirk(self):
        q = NICQuirk(name="q", operation="put", bandwidth_factor=0.5)
        nic = dataclasses.replace(SLINGSHOT_11, quirk=q)
        assert nic.effective_bandwidth("put", True) == pytest.approx(
            nic.bandwidth * 0.5
        )
        assert nic.effective_bandwidth("get", True) == nic.bandwidth
        assert nic.effective_bandwidth("put", False) == nic.bandwidth


class TestNodeWiring:
    def _node(self, wiring, gpus=4):
        return NodeSpec(
            name="n",
            cpu=EPYC_7763,
            gpu=A100,
            gpus_per_node=gpus,
            nic=SLINGSHOT_11,
            nics_per_node=4,
            gpu_link=wiring,
            host_link=PCIE4_X16,
        )

    def test_all_to_all(self):
        node = self._node(all_to_all(NVLINK3))
        assert node.link_between(0, 3) is NVLINK3
        assert node.link_between(1, 2) is NVLINK3

    def test_mi250x_two_tier(self):
        from repro.hardware.catalog import XGMI_INTER_MODULE, XGMI_INTRA_MODULE

        node = self._node(mi250x_wiring(XGMI_INTRA_MODULE, XGMI_INTER_MODULE), gpus=8)
        assert node.link_between(0, 1) is XGMI_INTRA_MODULE  # same module
        assert node.link_between(6, 7) is XGMI_INTRA_MODULE
        assert node.link_between(0, 2) is XGMI_INTER_MODULE  # across modules
        assert node.link_between(1, 7) is XGMI_INTER_MODULE

    def test_no_direct_link(self):
        node = self._node(no_direct_link())
        assert node.link_between(0, 1) is None

    def test_bad_indices_rejected(self):
        node = self._node(all_to_all(NVLINK3))
        with pytest.raises(ConfigurationError):
            node.link_between(0, 0)
        with pytest.raises(ConfigurationError):
            node.link_between(0, 9)


class TestTopologyPaths:
    @pytest.fixture
    def topo(self):
        return platform_a(with_quirk=False).cluster(2)

    def test_total_gpus(self, topo):
        assert topo.total_gpus == 8
        assert len(topo.all_gpus()) == 8

    def test_same_device_path(self, topo):
        g = topo.gpu(0, 0)
        p = topo.path(g, g)
        assert p.kind is PathKind.SAME_DEVICE
        assert p.bandwidth == A100.mem_bandwidth

    def test_peer_direct_path(self, topo):
        p = topo.path(topo.gpu(0, 0), topo.gpu(0, 1))
        assert p.kind is PathKind.PEER_DIRECT
        assert p.bandwidth == NVLINK3.bandwidth
        assert p.peer_capable

    def test_inter_node_path(self, topo):
        p = topo.path(topo.gpu(0, 0), topo.gpu(1, 2))
        assert p.kind is PathKind.INTER_NODE
        assert p.bandwidth == SLINGSHOT_11.bandwidth
        assert len(p.resources) == 2  # src NIC + dst NIC

    def test_host_gpu_path(self, topo):
        p = topo.path(topo.host(0), topo.gpu(0, 1))
        assert p.kind is PathKind.HOST_STAGED
        assert p.bandwidth == PCIE4_X16.bandwidth

    def test_nic_striping(self, topo):
        assert topo.nic_for(topo.gpu(0, 0)) == 0
        assert topo.nic_for(topo.gpu(0, 3)) == 3

    def test_quirk_degrades_put_only(self):
        topo = platform_a(with_quirk=True).cluster(2)
        put = topo.path(topo.gpu(0, 0), topo.gpu(1, 0), operation="put")
        get = topo.path(topo.gpu(0, 0), topo.gpu(1, 0), operation="get")
        assert put.bandwidth < get.bandwidth
        assert put.bandwidth == pytest.approx(SLINGSHOT_11.bandwidth * 0.30)

    def test_transfer_time_alpha_beta(self, topo):
        p = topo.path(topo.gpu(0, 0), topo.gpu(1, 0), operation="get")
        t_small = p.transfer_time(8)
        t_large = p.transfer_time(8 * MiB)
        assert t_small == pytest.approx(p.latency + 8 / p.bandwidth)
        assert t_large > 100 * t_small

    def test_bad_lookups_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.gpu(5, 0)
        with pytest.raises(ConfigurationError):
            topo.gpu(0, 99)
        with pytest.raises(ConfigurationError):
            topo.path(topo.gpu(0, 0), DeviceId("gpu", 7, 0))

    def test_invalid_cluster_size(self):
        with pytest.raises(ConfigurationError):
            platform_a().cluster(0)

    @pytest.mark.parametrize(
        "bad",
        [
            DeviceId("gpu", 2, 0),  # node out of range
            DeviceId("gpu", -1, 0),
            DeviceId("gpu", 0, 4),  # GPU index out of range
            DeviceId("gpu", 0, -1),
            DeviceId("host", 0, 1),  # a host's index is always 0
            DeviceId("host", 2, 0),
        ],
        ids=str,
    )
    def test_unknown_endpoint_rejected_either_side(self, topo, bad):
        good = topo.gpu(0, 0)
        for src, dst in ((bad, good), (good, bad)):
            with pytest.raises(ConfigurationError, match="unknown device"):
                topo.path(src, dst)


class TestDeviceIdValue:
    """``DeviceId`` is a value: built anywhere, it equals, hashes and
    sorts like any other with the same fields."""

    def test_str_and_repr(self):
        assert str(DeviceId("gpu", 3, 1)) == "gpu3.1"
        assert str(DeviceId("host", 2, 0)) == "host2"
        assert f"{DeviceId('gpu', 0, 2)}" == "gpu0.2"
        assert repr(DeviceId("gpu", 3, 1)) == "DeviceId(kind='gpu', node=3, index=1)"

    def test_mixed_list_sorts_by_kind_node_index(self):
        devs = [
            DeviceId("host", 1, 0),
            DeviceId("gpu", 1, 0),
            DeviceId("host", 0, 0),
            DeviceId("gpu", 0, 3),
            DeviceId("gpu", 0, 1),
        ]
        assert [str(d) for d in sorted(devs)] == [
            "gpu0.1", "gpu0.3", "gpu1.0", "host0", "host1"
        ]

    def test_separate_constructions_are_one_key(self):
        a = DeviceId("gpu", 1, 2)
        b = DeviceId(kind="gpu", node=1, index=2)
        assert a == b and hash(a) == hash(b)
        assert a != DeviceId("gpu", 1, 3)
        assert {a: "x"}[b] == "x"
        assert (a.kind, a.node, a.index) == ("gpu", 1, 2)

    def test_immutable(self):
        d = DeviceId("gpu", 0, 0)
        with pytest.raises(AttributeError):
            d.node = 1
        with pytest.raises(AttributeError):
            d.label = "x"  # no per-instance dict

    @pytest.mark.parametrize("kind", ["cpu", "GPU", ""])
    def test_bad_kind_rejected(self, kind):
        with pytest.raises(ConfigurationError, match="bad device kind"):
            DeviceId(kind, 0, 0)


def _endpoints(topo):
    return [topo.host(n) for n in range(topo.num_nodes)] + topo.all_gpus()


class TestRouteMemo:
    """``path()`` resolves a route once per argument tuple."""

    @pytest.mark.parametrize("factory", [platform_a, platform_b, platform_c])
    def test_memoized_route_equals_fresh_resolution(self, factory):
        platform = factory()
        topo = platform.cluster(2)
        endpoints = _endpoints(topo)
        for src in endpoints:
            for dst in endpoints:
                for op in ("put", "get"):
                    for gpu_memory in (True, False):
                        for rails in (1, 2):
                            for force in (False, True):
                                args = (src, dst, op, gpu_memory, rails, force)
                                first = topo.path(*args)
                                # A topology that never saw another query.
                                fresh = platform.cluster(2).path(*args)
                                assert first == fresh, args
                                assert topo.path(*args) is first, args

    def test_keyword_and_default_calls_share_the_route(self):
        topo = platform_a().cluster(2)
        src, dst = topo.gpu(0, 0), topo.gpu(1, 1)
        assert topo.path(src, dst) is topo.path(src, dst, operation="put")
        assert topo.path(src, dst, "get") is not topo.path(src, dst, "put")


class TestPlatforms:
    def test_platform_a_shape(self):
        spec = platform_a()
        assert spec.gpus_per_node == 4
        assert spec.ccl == "nccl"
        assert spec.interconnect == "slingshot"
        assert spec.node.nic.quirk is not None

    def test_platform_a_quirk_optional(self):
        assert platform_a(with_quirk=False).node.nic.quirk is None

    def test_platform_b_shape(self):
        spec = platform_b()
        assert spec.gpus_per_node == 8  # 4 MI250X = 8 GCDs
        assert spec.ccl == "rccl"
        assert spec.node.gpu is MI250X_GCD

    def test_platform_c_shape(self):
        spec = platform_c()
        assert spec.gpus_per_node == 1
        assert spec.node.gpu is GH200
        assert spec.interconnect == "infiniband"
        assert spec.mpi_name == "openmpi"

    def test_get_platform(self):
        assert get_platform("a").name == "A"
        assert get_platform("B").name == "B"
        with pytest.raises(ConfigurationError):
            get_platform("Z")

    def test_paper_scale_clusters(self):
        # Fig. 6 configurations: A 16 nodes x 4, B 8 x 8 GCD, C 16 x 1.
        assert platform_a().cluster(16).total_gpus == 64
        assert platform_b().cluster(8).total_gpus == 64
        assert platform_c().cluster(16).total_gpus == 16
