"""The paper's two test problems (Section 4).

* :mod:`repro.problems.sparse_linear` -- the sparse linear system
  ``A x = b`` with a multi-diagonal matrix (Table 1: 30 sub-diagonals,
  spectral radius < 1), solved by fixed-step gradient descent with an
  all-to-all, dependency-driven communication scheme;
* :mod:`repro.problems.chemical` -- the non-linear chemical problem: a
  two-species advection-diffusion system on a 2-D grid (Eqs. 7-10),
  time-stepped by implicit Euler, each step solved by multisplitting
  Newton with GMRES as the sequential linear solver, with a
  nearest-neighbour (strip) communication scheme;
* :mod:`repro.problems.base` -- the LocalSolver protocols consumed by
  the AIAC / SISC workers in :mod:`repro.core`.
"""

from typing import Callable, List

from repro.problems.base import (
    LocalIteration,
    LocalSolver,
    SteppedLocalSolver,
)
from repro.problems.sparse_linear import (
    SparseLinearConfig,
    SparseLinearProblem,
    PAPER_SPARSE_LINEAR,
    make_sparse_linear_problem,
)
from repro.problems.chemical import (
    ChemicalConfig,
    ChemicalProblem,
    PAPER_CHEMICAL,
    make_chemical_problem,
)
from repro.registry import Registry

PROBLEM_REGISTRY = Registry("problem")


def register_problem(name=None, **kwargs) -> Callable:
    """Register a problem factory (``(**params) -> problem``) by name.

    The factory must return an object exposing ``make_local(rank, size)``
    (see :class:`repro.problems.base.LocalSolver`); registered names are
    usable in :class:`repro.api.Scenario` dicts.
    """
    return PROBLEM_REGISTRY.register(name, **kwargs)


def get_problem_factory(name: str) -> Callable:
    """Look up a registered problem factory by name."""
    return PROBLEM_REGISTRY.get(name)


def list_problems() -> List[str]:
    """Sorted names of all registered problems."""
    return PROBLEM_REGISTRY.names()


register_problem("sparse_linear")(make_sparse_linear_problem)
register_problem("chemical")(make_chemical_problem)

__all__ = [
    "PROBLEM_REGISTRY",
    "register_problem",
    "get_problem_factory",
    "list_problems",
    "LocalIteration",
    "LocalSolver",
    "SteppedLocalSolver",
    "SparseLinearConfig",
    "SparseLinearProblem",
    "PAPER_SPARSE_LINEAR",
    "make_sparse_linear_problem",
    "ChemicalConfig",
    "ChemicalProblem",
    "PAPER_CHEMICAL",
    "make_chemical_problem",
]
