"""The worker registry: AIAC/SISC coroutine factories by name.

A :class:`repro.api.Scenario` names its worker (or lets the environment
choose one); every backend resolves that name here.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.aiac import aiac_worker, aiac_stepped_worker
from repro.core.sisc import sisc_worker, sisc_stepped_worker
from repro.registry import Registry

WORKER_REGISTRY = Registry("worker")


def register_worker(name=None, **kwargs) -> Callable:
    """Register a worker coroutine factory under a short name.

    A worker is a ``(rank, size, solver, opts) -> generator`` callable
    yielding :mod:`repro.core.effects`; registered names are usable
    in :class:`repro.api.Scenario`.
    """
    return WORKER_REGISTRY.register(name, **kwargs)


def get_worker(name: str) -> Callable:
    """Look up a worker coroutine factory by its registered name."""
    return WORKER_REGISTRY.get(name)


def list_workers() -> List[str]:
    """Sorted names of all registered workers."""
    return WORKER_REGISTRY.names()


register_worker("aiac")(aiac_worker)
register_worker("sisc")(sisc_worker)
register_worker("aiac_stepped")(aiac_stepped_worker)
register_worker("sisc_stepped")(sisc_stepped_worker)


__all__ = [
    "WORKER_REGISTRY",
    "register_worker",
    "get_worker",
    "list_workers",
]
