"""Deployment validation (Section 5.3 of the paper, as executable code).

The paper compares the environments' ease of deployment qualitatively;
here those constraints become a validator: given an environment and a
cluster description, :func:`validate_deployment` reports whether the
deployment can work and which steps/configuration it needs.

* PM2 "requires a complete interconnection graph of the cluster" and
  has no automatic conversion of data representations between
  heterogeneous machines;
* MPI/Madeleine is similar, but Madeleine 3 allows several
  communication protocols inside the same application;
* OmniORB tolerates incomplete connection graphs (client/server
  architecture, useful behind firewalls) but needs a naming service
  running on one site and configuration on every site to locate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.envs.base import Environment
from repro.simgrid.network import Network


class DeploymentError(RuntimeError):
    """The requested deployment violates a hard environment constraint."""


@dataclass
class DeploymentPlan:
    """Outcome of validating one environment against one cluster."""

    environment: str
    ok: bool
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    required_daemons: Tuple[str, ...] = ()
    required_config_files: Tuple[str, ...] = ()
    launch_command: str = ""
    manual_steps: List[str] = field(default_factory=list)

    @property
    def effort_score(self) -> int:
        """Coarse deployment-effort metric (lower is easier).

        One point per daemon, config file, manual step and warning.
        """
        return (
            len(self.required_daemons)
            + len(self.required_config_files)
            + len(self.manual_steps)
            + len(self.warnings)
        )


def cluster_is_heterogeneous(network: Network) -> bool:
    """True when hosts differ in declared machine model or speed."""
    speeds = {h.speed for h in network.hosts}
    models = {h.tags.get("model") for h in network.hosts}
    return len(speeds) > 1 or len(models) > 1


def validate_deployment(
    env: Environment,
    network: Network,
    protocols_by_site: Optional[dict] = None,
) -> DeploymentPlan:
    """Check an environment's Section 5.3 constraints against a cluster.

    Parameters
    ----------
    env:
        Environment model.
    network:
        Cluster topology (possibly with an incomplete visibility graph).
    protocols_by_site:
        Optional mapping ``site -> protocol name`` to exercise the
        multi-protocol feature of Madeleine.
    """
    traits = env.deployment
    plan = DeploymentPlan(
        environment=env.name,
        ok=True,
        required_daemons=traits.runtime_daemons,
        required_config_files=traits.config_files,
        launch_command=traits.launch_command,
    )

    complete = network.is_complete()
    if traits.requires_complete_graph and not complete:
        plan.ok = False
        plan.errors.append(
            f"{env.display_name} requires a complete interconnection graph; "
            "this cluster has hosts that cannot reach each other"
        )
    if not traits.requires_complete_graph and not complete:
        # OmniORB can still work provided the graph allows reaching the
        # naming-service site from everywhere.
        if network.hosts:
            ns_host = network.hosts[0].name
            unreachable = [
                h.name
                for h in network.hosts
                if not network.reaches(h.name, ns_host)
            ]
            if unreachable:
                plan.ok = False
                plan.errors.append(
                    "naming service unreachable from: " + ", ".join(unreachable)
                )
            else:
                plan.warnings.append(
                    "incomplete connection graph: invocations will be "
                    "redirected through visible hosts"
                )

    heterogeneous = cluster_is_heterogeneous(network)
    if heterogeneous and not traits.handles_data_conversion:
        plan.warnings.append(
            "heterogeneous machines: the programmer must manage data "
            "representation conversions explicitly"
        )
        plan.manual_steps.append("implement number-representation conversion")

    multi_protocol_needed = bool(protocols_by_site) and len(set(protocols_by_site.values())) > 1
    if multi_protocol_needed:
        if traits.multi_protocol:
            plan.manual_steps.append(
                "write the two Madeleine configuration files "
                "(available protocols; protocols actually used)"
            )
        else:
            plan.ok = False
            plan.errors.append(
                f"{env.display_name} cannot mix communication protocols "
                f"({sorted(set(protocols_by_site.values()))}) in one application"
            )

    if traits.requires_naming_service:
        plan.manual_steps.append("start the naming service on one site")
        plan.manual_steps.append(
            "configure every site to localize and contact the naming service"
        )

    return plan


def deployment_ranking(
    envs: Sequence[Environment], network: Network
) -> List[Tuple[str, int, bool]]:
    """Rank environments by deployment effort on a given cluster.

    Returns ``[(name, effort_score, ok), ...]`` sorted easiest-first
    among the feasible deployments (infeasible ones sink to the end).
    """
    rows = []
    for env in envs:
        plan = validate_deployment(env, network)
        rows.append((env.name, plan.effort_score, plan.ok))
    return sorted(rows, key=lambda r: (not r[2], r[1]))


__all__ = [
    "DeploymentError",
    "DeploymentPlan",
    "validate_deployment",
    "deployment_ranking",
    "cluster_is_heterogeneous",
]
