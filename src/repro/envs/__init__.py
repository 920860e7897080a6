"""Models of the parallel programming environments compared in the paper.

Each environment is one :class:`~repro.envs.base.Environment` value, a
row of :data:`~repro.envs.environments.PAPER_ENVIRONMENTS`:

* ``sync_mpi`` -- classical mono-threaded MPI, the synchronous
  baseline;
* ``pm2`` -- Marcel threads + Madeleine RPC;
* ``mpimad`` -- the multi-protocol, thread-safe MPICH;
* ``omniorb`` -- the CORBA ORB.

Plus the qualitative sections of the paper as executable code:
:mod:`repro.envs.deployment` (Section 5.3),
:mod:`repro.envs.features` (Section 6) and the ergonomics traits on
each environment (Section 5.2).
"""

from typing import List

from repro.envs.base import (
    DeploymentTraits,
    Environment,
    ErgonomicsTraits,
    ThreadPolicy,
    PROBLEM_KINDS,
)
from repro.envs.environments import PAPER_ENVIRONMENTS
from repro.envs.deployment import (
    DeploymentPlan,
    deployment_ranking,
    validate_deployment,
)
from repro.envs.features import FeatureChecklist, aiac_suitability, checklist_for
from repro.registry import Registry

ENVIRONMENT_REGISTRY = Registry("environment")
_PAPER_ORDER = [env.name for env in PAPER_ENVIRONMENTS]


def register(env: Environment) -> Environment:
    """Add an environment to the global registry (used by get/all)."""
    return ENVIRONMENT_REGISTRY.register(env.name)(env)


def get_environment(name: str) -> Environment:
    """Look up an environment model by its short name."""
    return ENVIRONMENT_REGISTRY.get(name)


def all_environments() -> List[Environment]:
    """All registered environments, paper baseline first."""
    known = [n for n in _PAPER_ORDER if n in ENVIRONMENT_REGISTRY]
    extras = [n for n in ENVIRONMENT_REGISTRY.names() if n not in _PAPER_ORDER]
    return [get_environment(n) for n in known + extras]


def asynchronous_environments() -> List[Environment]:
    """The three multi-threaded environments compared for AIAC."""
    return [e for e in all_environments() if e.supports_asynchronous]


for _env in PAPER_ENVIRONMENTS:
    register(_env)

__all__ = [
    "Environment",
    "ThreadPolicy",
    "DeploymentTraits",
    "ErgonomicsTraits",
    "PROBLEM_KINDS",
    "ENVIRONMENT_REGISTRY",
    "register",
    "get_environment",
    "all_environments",
    "asynchronous_environments",
    "DeploymentPlan",
    "validate_deployment",
    "deployment_ranking",
    "FeatureChecklist",
    "checklist_for",
    "aiac_suitability",
]
