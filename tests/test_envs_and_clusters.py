"""Tests for the environment models, registry and cluster presets."""

import dataclasses
import hashlib
import json

import pytest

from repro.clusters import (
    DURON_800,
    P4_1700,
    P4_2400,
    ethernet_adsl,
    ethernet_wan,
    local_cluster,
    uniform_cluster,
)
from repro.envs import (
    PROBLEM_KINDS,
    all_environments,
    asynchronous_environments,
    get_environment,
    register,
)
from repro.envs.base import ThreadPolicy
from repro.simgrid.link import kbit, mbit


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_all_four_environments_registered():
    names = [e.name for e in all_environments()]
    assert names[:4] == ["sync_mpi", "pm2", "mpimad", "omniorb"]


def test_async_environments_excludes_baseline():
    assert {e.name for e in asynchronous_environments()} == {"pm2", "mpimad", "omniorb"}


def test_get_environment_unknown_raises():
    with pytest.raises(KeyError):
        get_environment("mpi4py")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register(get_environment("pm2"))


def test_default_worker_selection():
    assert get_environment("sync_mpi").default_worker(stepped=False) == "sisc"
    assert get_environment("sync_mpi").default_worker(stepped=True) == "sisc_stepped"
    assert get_environment("pm2").default_worker(stepped=False) == "aiac"
    assert get_environment("omniorb").default_worker(stepped=True) == "aiac_stepped"


# ----------------------------------------------------------------------
# Table 4 thread policies (live configuration)
# ----------------------------------------------------------------------
def test_table4_sparse_linear_policies():
    assert get_environment("pm2").thread_policy("sparse_linear") == ThreadPolicy(1, None)
    assert get_environment("mpimad").thread_policy("sparse_linear") == ThreadPolicy(1, 1)
    omniorb = get_environment("omniorb").thread_policy("sparse_linear")
    assert omniorb.per_peer_senders and omniorb.receiving_threads is None


def test_table4_chemical_policies():
    assert get_environment("pm2").thread_policy("chemical") == ThreadPolicy(2, 1)
    assert get_environment("mpimad").thread_policy("chemical") == ThreadPolicy(2, 2)
    orb = get_environment("omniorb").thread_policy("chemical")
    assert orb.sending_threads == 2 and orb.receiving_threads is None


def test_comm_policies_reflect_thread_policies():
    policy = get_environment("omniorb").comm_policy("sparse_linear", 12)
    assert policy.n_send_threads == 11  # "N sending threads"
    assert policy.n_recv_threads is None
    policy = get_environment("mpimad").comm_policy("chemical", 12)
    assert policy.n_send_threads == 2 and policy.n_recv_threads == 2


def test_sync_mpi_policy_blocks():
    policy = get_environment("sync_mpi").comm_policy("sparse_linear", 4)
    assert policy.blocking_send and policy.blocking_recv
    assert policy.rendezvous_threshold < float("inf")
    chem = get_environment("sync_mpi").comm_policy("chemical", 4)
    assert chem.rendezvous_threshold == float("inf")  # small halos stay eager


def test_async_policies_never_block():
    for name in ("pm2", "mpimad", "omniorb"):
        for problem in PROBLEM_KINDS:
            policy = get_environment(name).comm_policy(problem, 6)
            assert not policy.blocking_send and not policy.blocking_recv
            assert policy.fair


def test_unknown_problem_kind_rejected():
    with pytest.raises(ValueError):
        get_environment("pm2").comm_policy("weather", 4)
    with pytest.raises(ValueError):
        get_environment("pm2").thread_policy("weather")


def test_thread_policy_describe_wording():
    assert ThreadPolicy(1, None).describe() == (
        "1 sending thread / receiving threads created on demand"
    )
    assert ThreadPolicy(2, 2).describe() == "2 sending threads / 2 receiving threads"
    assert ThreadPolicy(None, 1, per_peer_senders=True).describe().startswith(
        "N sending threads"
    )


#: SHA-1 of every environment's policies and traits; any changed
#: calibration constant, thread count or trait changes it.
ENVIRONMENT_TABLE_SHA1 = "ec2e10bb516a34c02d738645290479ba1a9912b4"


def test_environment_table_is_pinned():
    rows = []
    for name in ("sync_mpi", "pm2", "mpimad", "omniorb"):
        env = get_environment(name)
        for problem in PROBLEM_KINDS:
            policies = [
                dataclasses.asdict(env.comm_policy(problem, n_ranks))
                for n_ranks in (1, 2, 3, 4, 6, 8, 12, 16, 32)
            ]
            rows.append([env.name, problem, policies,
                         dataclasses.asdict(env.thread_policy(problem))])
        rows.append([
            env.name,
            env.display_name,
            env.multithreaded,
            env.supports_asynchronous,
            env.default_worker(stepped=False),
            env.default_worker(stepped=True),
            dataclasses.asdict(env.deployment),
            dataclasses.asdict(env.ergonomics),
        ])
    canonical = json.dumps(rows, sort_keys=True)
    assert hashlib.sha1(canonical.encode()).hexdigest() == ENVIRONMENT_TABLE_SHA1


# ----------------------------------------------------------------------
# machine catalogue
# ----------------------------------------------------------------------
def test_machine_relative_speeds():
    assert DURON_800.speed < P4_1700.speed < P4_2400.speed
    assert P4_2400.speed / DURON_800.speed == pytest.approx(3.0)


def test_machine_make_host_carries_tags():
    host = P4_1700.make_host("n0", site="site2")
    assert host.tags["model"] == "Pentium IV 1.7"
    assert host.site == "site2"


# ----------------------------------------------------------------------
# cluster presets
# ----------------------------------------------------------------------
def test_ethernet_wan_topology():
    net = ethernet_wan(n_hosts=12, n_sites=3)
    assert len(net.hosts) == 12
    assert net.is_complete()
    sites = {h.site for h in net.hosts}
    assert sites == {"site0", "site1", "site2"}
    # Inter-site routes traverse LAN + up + down + LAN.
    a = next(h for h in net.hosts if h.site == "site0")
    b = next(h for h in net.hosts if h.site == "site1")
    assert len(net.route(a, b).links) == 4
    # Intra-site routes use the LAN only.
    a2 = [h for h in net.hosts if h.site == "site0"][1]
    assert len(net.route(a, a2).links) == 1


def test_ethernet_wan_contiguous_rank_blocks():
    """Strip neighbours must be co-located except at site boundaries."""
    net = ethernet_wan(n_hosts=12, n_sites=3)
    hosts = net.hosts
    crossings = sum(
        1 for a, b in zip(hosts, hosts[1:]) if a.site != b.site
    )
    assert crossings == 2  # one per site boundary


def test_ethernet_wan_machine_interleaving():
    net = ethernet_wan(n_hosts=12, n_sites=3)
    models = [h.tags["model"] for h in net.hosts]
    assert models[:3] == ["Duron 800", "Pentium IV 1.7", "Pentium IV 2.4"]
    assert len(set(models)) == 3


def test_ethernet_wan_bandwidths():
    net = ethernet_wan(n_hosts=6, n_sites=3)
    ups = [l for l in net.links if l.name.startswith("up-")]
    lans = [l for l in net.links if l.name.startswith("lan-")]
    assert all(l.bandwidth == pytest.approx(mbit(10.0)) for l in ups)
    assert all(l.bandwidth == pytest.approx(mbit(100.0)) for l in lans)


def test_ethernet_adsl_asymmetric_link():
    net = ethernet_adsl(n_hosts=12, n_sites=4, adsl_site=3)
    up = next(l for l in net.links if l.name == "up-site3")
    down = next(l for l in net.links if l.name == "down-site3")
    assert up.bandwidth == pytest.approx(kbit(128.0))
    assert down.bandwidth == pytest.approx(kbit(512.0))
    assert up.latency > next(
        l for l in net.links if l.name == "up-site0"
    ).latency


def test_local_cluster_single_lan():
    net = local_cluster(n_hosts=9)
    assert len(net.links) == 1
    assert net.is_complete()
    models = [h.tags["model"] for h in net.hosts]
    assert models.count("Duron 800") == 3  # merely equal numbers of each


def test_speed_scale_applies_uniformly():
    base = ethernet_wan(n_hosts=3, n_sites=3)
    scaled = ethernet_wan(n_hosts=3, n_sites=3, speed_scale=0.5)
    for h_base, h_scaled in zip(base.hosts, scaled.hosts):
        assert h_scaled.speed == pytest.approx(0.5 * h_base.speed)
    with pytest.raises(ValueError):
        ethernet_wan(n_hosts=3, n_sites=3, speed_scale=0.0)


def test_wan_latency_parameter():
    fast = ethernet_wan(n_hosts=3, n_sites=3, wan_latency=1e-3)
    up = next(l for l in fast.links if l.name.startswith("up-"))
    assert up.latency == pytest.approx(1e-3)


def test_uniform_cluster_homogeneous():
    net = uniform_cluster(n_hosts=5, speed=42.0)
    assert all(h.speed == 42.0 for h in net.hosts)
    assert net.is_complete()


def test_preset_validation():
    with pytest.raises(ValueError):
        ethernet_wan(n_hosts=2, n_sites=3)
    with pytest.raises(ValueError):
        ethernet_adsl(n_hosts=8, n_sites=4, adsl_site=9)
