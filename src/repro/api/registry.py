"""One-stop registry surface for the declarative API.

The registries themselves live next to what they register --
workers in :mod:`repro.core.run`, problems in :mod:`repro.problems`,
clusters in :mod:`repro.clusters`, environments in :mod:`repro.envs`,
backends in :mod:`repro.api.backends` -- this module re-exports the
decorators and lookups so user code extending the system needs a
single import::

    from repro.api.registry import register_problem, register_cluster

    @register_problem("my_problem")
    def make_my_problem(n=100):
        ...
"""

from repro.api.backends import get_backend, list_backends, register_backend
from repro.balancing import get_balancer, list_balancers, register_balancer
from repro.clusters import get_cluster, list_clusters, register_cluster
from repro.core.run import get_worker, list_workers, register_worker
from repro.envs import all_environments, get_environment
from repro.envs import register as register_environment
from repro.problems import (
    get_problem_factory,
    list_problems,
    register_problem,
)
from repro.registry import Registry


def list_environments():
    """Sorted names of all registered environments::

        >>> list_environments()
        ['mpimad', 'omniorb', 'pm2', 'sync_mpi']
    """
    return sorted(env.name for env in all_environments())


__all__ = [
    "Registry",
    "register_worker",
    "get_worker",
    "list_workers",
    "register_problem",
    "get_problem_factory",
    "list_problems",
    "register_cluster",
    "get_cluster",
    "list_clusters",
    "register_environment",
    "get_environment",
    "list_environments",
    "register_backend",
    "get_backend",
    "list_backends",
    "register_balancer",
    "get_balancer",
    "list_balancers",
]
