"""Tests for Sections 5.2, 5.3 and 6 as executable code."""

import sys

import pytest

from repro.clusters import local_cluster, uniform_cluster
from repro.envs import (
    aiac_suitability,
    all_environments,
    checklist_for,
    deployment_ranking,
    get_environment,
    validate_deployment,
)
from repro.envs.deployment import cluster_is_heterogeneous
from repro.envs.features import FeatureChecklist
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.network import Network


def _incomplete_network(reach_naming_host=True):
    """Three hosts where c only sees a (firewall-style visibility)."""
    net = Network()
    a = net.add_host(Host(name="a", speed=1.0))
    b = net.add_host(Host(name="b", speed=1.0))
    c = net.add_host(Host(name="c", speed=1.0))
    link = net.add_link(Link(name="l", latency=1e-3, bandwidth=1e6))
    net.add_route(a, b, [link])
    net.add_route(b, a, [link])
    if reach_naming_host:
        net.add_route(c, a, [link])
        net.add_route(a, c, [link])
    return net


# ----------------------------------------------------------------------
# Section 5.3: deployment
# ----------------------------------------------------------------------
def test_pm2_requires_complete_graph():
    plan = validate_deployment(get_environment("pm2"), _incomplete_network())
    assert not plan.ok
    assert any("complete interconnection graph" in e for e in plan.errors)


def test_mpimad_requires_complete_graph():
    plan = validate_deployment(get_environment("mpimad"), _incomplete_network())
    assert not plan.ok


def test_omniorb_tolerates_incomplete_graph():
    plan = validate_deployment(get_environment("omniorb"), _incomplete_network())
    assert plan.ok
    assert any("naming service" in step for step in plan.manual_steps)
    assert "omniNames" in plan.required_daemons
    assert plan.warnings == [
        "incomplete connection graph: invocations will be "
        "redirected through visible hosts"
    ]


def test_omniorb_needs_reachable_naming_service():
    net = _incomplete_network(reach_naming_host=False)
    plan = validate_deployment(get_environment("omniorb"), net)
    assert not plan.ok
    assert plan.errors == ["naming service unreachable from: c"]


def test_omniorb_reaches_the_naming_service_through_visible_hosts():
    """Only the direction towards the naming-service host (a) matters."""
    net = _incomplete_network(reach_naming_host=False)
    link = net.links[0]
    net.add_route("c", "b", [link])  # c -> b -> a, nothing back to c
    assert validate_deployment(get_environment("omniorb"), net).ok
    blind = _incomplete_network(reach_naming_host=False)
    blind.add_route("a", "c", [link])  # a sees c, c still sees nobody
    plan = validate_deployment(get_environment("omniorb"), blind)
    assert plan.errors == ["naming service unreachable from: c"]


def test_validate_deployment_needs_no_graph_library(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    plan = validate_deployment(get_environment("omniorb"), _incomplete_network())
    assert plan.ok and len(plan.warnings) == 1


def test_complete_cluster_deploys_everywhere():
    net = local_cluster(n_hosts=6)
    for env in all_environments():
        assert validate_deployment(env, net).ok


def test_heterogeneity_warnings_for_non_converting_envs():
    net = local_cluster(n_hosts=6)  # mixed Duron/P4 machines
    assert cluster_is_heterogeneous(net)
    for name in ("pm2", "mpimad", "sync_mpi"):
        plan = validate_deployment(get_environment(name), net)
        assert any("data" in w for w in plan.warnings)
    # CORBA marshalling handles representation conversion transparently.
    plan = validate_deployment(get_environment("omniorb"), net)
    assert not any("representation" in w for w in plan.warnings)


def test_homogeneous_cluster_no_conversion_warning():
    net = uniform_cluster(n_hosts=4)
    plan = validate_deployment(get_environment("pm2"), net)
    assert not any("representation" in w for w in plan.warnings)


def test_multi_protocol_only_supported_by_madeleine():
    net = uniform_cluster(n_hosts=4)
    protocols = {"site0": "tcp", "site1": "myrinet"}
    ok_plan = validate_deployment(get_environment("mpimad"), net, protocols)
    assert ok_plan.ok
    assert any("Madeleine configuration" in s for s in ok_plan.manual_steps)
    bad_plan = validate_deployment(get_environment("pm2"), net, protocols)
    assert not bad_plan.ok


def test_deployment_ranking_prefers_feasible_and_simple():
    net = _incomplete_network()
    ranking = deployment_ranking(all_environments(), net)
    names_ok = [name for name, _, ok in ranking if ok]
    assert names_ok[0] == "omniorb"  # only feasible one on this cluster
    assert all(not ok for name, _, ok in ranking if name != "omniorb")


def test_deployment_plan_effort_score():
    net = local_cluster(n_hosts=6)
    orb = validate_deployment(get_environment("omniorb"), net)
    mpimad = validate_deployment(get_environment("mpimad"), net)
    assert orb.effort_score > 0 and mpimad.effort_score > 0


# ----------------------------------------------------------------------
# Section 5.2: ergonomics
# ----------------------------------------------------------------------
def test_mpimad_easiest_to_program():
    """"MPI/Mad is probably the easiest to program" (Section 5.2)."""
    verbosity = {
        env.name: env.ergonomics.relative_verbosity for env in all_environments()
    }
    assert verbosity["mpimad"] == min(verbosity.values())


def test_pm2_has_explicit_packing_and_rpc():
    ergo = get_environment("pm2").ergonomics
    assert ergo.communication_style == "RPC"
    assert ergo.explicit_packing


def test_omniorb_bootstrap_and_idl():
    ergo = get_environment("omniorb").ergonomics
    assert ergo.needs_network_bootstrap
    assert ergo.idl_required


def test_marcel_shared_by_pm2_and_mpimad():
    assert get_environment("pm2").ergonomics.thread_library == "Marcel"
    assert get_environment("mpimad").ergonomics.thread_library == "Marcel"
    assert get_environment("omniorb").ergonomics.thread_library == "omnithread"


# ----------------------------------------------------------------------
# Section 6: required features
# ----------------------------------------------------------------------
def test_multithreaded_envs_are_aiac_suitable():
    for name in ("pm2", "mpimad", "omniorb"):
        verdict = aiac_suitability(get_environment(name))
        assert verdict["suitable"], verdict


def test_mono_threaded_mpi_not_suitable():
    verdict = aiac_suitability(get_environment("sync_mpi"))
    assert not verdict["suitable"]
    assert "multithreading" in verdict["missing"]


def test_checklist_reflects_deployment_traits():
    orb = checklist_for(get_environment("omniorb"))
    assert orb.incomplete_graphs
    assert not orb.multi_protocol
    mad = checklist_for(get_environment("mpimad"))
    assert mad.multi_protocol
    assert not mad.incomplete_graphs


def test_checklist_scoring():
    full = FeatureChecklist(
        blocking_point_to_point=True, multithreading=True, fair_scheduler=True,
        multi_protocol=True, incomplete_graphs=True,
        on_demand_reception_threads=True, mutex_system=True,
    )
    assert full.mandatory_met()
    assert full.score() == (3, 4)
    assert full.missing() == []
    empty = FeatureChecklist()
    assert not empty.mandatory_met()
    assert len(empty.missing()) == 7
