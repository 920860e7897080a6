"""A run as a value: the declarative :class:`Scenario`.

The paper compares the *same* AIAC/SISC algorithms across execution
environments; this module makes that comparison a first-class object.
A :class:`Scenario` names a problem, an environment, a cluster preset
and an algorithm -- all as registry strings plus plain parameter dicts
-- so the identical value can be executed on the discrete-event
simulator or on real threads (:mod:`repro.api.backends`), swept over a
grid (:mod:`repro.sweep`), serialized to JSON and rebuilt on the
other side of a process pool.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api.faults import FaultPlan
from repro.balancing.policy import BalancingPlan
from repro.clusters import CLUSTER_REGISTRY, get_cluster
from repro.core.aiac import AIACOptions
from repro.core.run import WORKER_REGISTRY
from repro.envs import ENVIRONMENT_REGISTRY, Environment, get_environment
from repro.problems import PROBLEM_REGISTRY, get_problem_factory


#: ``(factory, params_json, instance)`` of the last problem
#: :meth:`Scenario.build_problem` built in this process, or ``None``.
_LAST_BUILT: Optional[Tuple[Any, str, Any]] = None


@functools.lru_cache(maxsize=None)
def _accepts(callable_obj: Any, param: str) -> bool:
    """True if ``callable_obj`` has an explicitly named ``param``.

    Memoised per registry factory: every bind of a seeded scenario asks.
    """
    try:
        signature = inspect.signature(callable_obj)
    except (TypeError, ValueError):
        return False
    return param in signature.parameters


@dataclass(frozen=True)
class Scenario:
    """One fully-described run: problem x environment x cluster x algorithm.

    Every field is either a registry string, a plain parameter mapping
    or an :class:`AIACOptions` value, so a scenario round-trips through
    ``to_dict``/``from_dict`` (and therefore JSON) without loss.  The
    four registry strings are checked when the scenario is built: an
    unknown name raises ``KeyError`` naming the known ones.

    Attributes
    ----------
    problem / problem_params:
        Name in the problem registry plus factory keyword arguments
        (e.g. ``"sparse_linear"``, ``{"n": 1200, "dominance": 0.9}``).
    environment:
        Name in the environment registry (``"sync_mpi"``, ``"pm2"``,
        ``"mpimad"``, ``"omniorb"``); decides the communication policy
        on the simulated backend and the default algorithm.
    cluster / cluster_params:
        Name in the cluster-preset registry plus builder keyword
        arguments; ``n_hosts`` defaults to ``n_ranks``.
    algorithm:
        A worker registry name (``"aiac"``, ``"sisc"``, or a custom
        registered worker), or ``"auto"`` to follow the paper's
        convention: the environment's default worker.  Either protocol
        runs single-level and time-stepped problems alike.
    options:
        Protocol knobs; ``None`` derives sensible defaults from the
        problem configuration (its ``eps``/``inner_eps``,
        ``stability_count`` and iteration cap).
    policy_overrides:
        Keyword overrides applied to the environment's communication
        policy (simulated backend only) -- the declarative form of the
        ablation experiments (e.g. ``{"fair": False}``).
    seed:
        Forwarded to the problem factory when it accepts a ``seed``
        parameter and ``problem_params`` does not already pin one; also
        the fallback seed of the fault RNG when ``faults`` does not pin
        its own.
    faults:
        Optional :class:`~repro.api.faults.FaultPlan` describing
        adverse grid conditions (degraded links, slowed hosts, message
        loss/duplication/reorder, rank crashes).  Compiled onto the
        simulator by :class:`~repro.api.backends.SimulatedBackend`; the
        loss/duplication/reorder/crash subset is also honoured by
        :class:`~repro.api.backends.ThreadedBackend`.  A plain dict (the
        ``FaultPlan.to_dict`` form) is accepted and coerced.  See
        ``docs/testing.md``.
    balancer:
        Optional :class:`~repro.balancing.BalancingPlan` coupling
        dynamic load balancing with the asynchronous iterations: ranks
        measure their own throughput and migrate rows to neighbours
        mid-run (``policy="diffusion"``; ``policy="none"`` runs the
        identical machinery without ever migrating -- the fair
        baseline).  Requires the ``aiac`` worker and a problem
        supporting row migration; honoured by both backends.  A plain
        dict (the ``BalancingPlan.to_dict`` form) is accepted and
        coerced.  See ``docs/balancing.md``.
    problem_kind:
        The communication-policy kind (``"sparse_linear"`` or
        ``"chemical"``); defaults to ``problem``, override it when
        registering custom problems.
    name:
        Optional label carried into records.

    Example
    -------
    ::

        from repro.api import Scenario, run_scenario

        scenario = Scenario(problem="sparse_linear",
                            problem_params={"n": 600},
                            environment="pm2", n_ranks=4)
        result = run_scenario(scenario)          # simulated backend
        faster = scenario.derive(environment="sync_mpi")

    Field reference and JSON forms: ``docs/scenarios.md``.
    """

    problem: str
    environment: str = "pm2"
    cluster: str = "uniform_cluster"
    algorithm: str = "auto"
    n_ranks: int = 4
    problem_params: Mapping[str, Any] = field(default_factory=dict)
    cluster_params: Mapping[str, Any] = field(default_factory=dict)
    options: Optional[AIACOptions] = None
    policy_overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    faults: Optional[FaultPlan] = None
    balancer: Optional[BalancingPlan] = None
    problem_kind: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            # Ergonomics: accept the plain-dict (JSON) form directly.
            object.__setattr__(self, "faults", FaultPlan.from_dict(self.faults))
        if self.balancer is not None and not isinstance(self.balancer, BalancingPlan):
            object.__setattr__(
                self, "balancer", BalancingPlan.from_dict(self.balancer)
            )
        if not (
            self.problem in PROBLEM_REGISTRY
            and self.environment in ENVIRONMENT_REGISTRY
            and self.cluster in CLUSTER_REGISTRY
            and (self.algorithm == "auto" or self.algorithm in WORKER_REGISTRY)
        ):
            # The first unknown name raises, naming the known ones.
            PROBLEM_REGISTRY.get(self.problem)
            ENVIRONMENT_REGISTRY.get(self.environment)
            CLUSTER_REGISTRY.get(self.cluster)
            WORKER_REGISTRY.get(self.algorithm)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """The problem kind used for communication-policy lookup."""
        return self.problem_kind or self.problem

    def derive(self, **changes: Any) -> "Scenario":
        """A copy with fields replaced; ``field__key`` updates mappings.

        ``scenario.derive(environment="pm2", problem_params__n=600)``
        replaces the ``environment`` field and the single ``n`` entry of
        ``problem_params``, leaving everything else untouched.  The
        nested form also reaches into plan values:
        ``derive(balancer__policy="none")`` swaps one field of the
        balancing plan.
        """
        flat: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {}
        for key, value in changes.items():
            if "__" in key:
                outer, inner = key.split("__", 1)
                nested.setdefault(outer, {})[inner] = value
            else:
                flat[key] = value
        for outer, updates in nested.items():
            current = flat.get(outer, getattr(self, outer))
            if isinstance(current, Mapping):
                flat[outer] = {**current, **updates}
            elif is_dataclass(current) and not isinstance(current, type):
                flat[outer] = replace(current, **updates)
            else:
                raise TypeError(
                    f"field {outer!r} is not a parameter mapping or plan value"
                )
        return replace(self, **flat)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_problem(self) -> Any:
        """The problem instance: built from the registry, or the last one.

        The key is the registered factory object plus the resolved
        parameters (the scenario ``seed`` injected) as canonical JSON.
        When it matches the instance this process built last, that
        instance is returned instead of building again -- so scenarios
        derived over environment, cluster, rank count or algorithm
        share one instance.  Parameters that cannot be JSON-encoded are
        built every time.  A built instance is shared and must be
        treated as read-only (DESIGN.md "Problem instances are built
        once per process").
        """
        global _LAST_BUILT
        factory = get_problem_factory(self.problem)
        params = dict(self.problem_params)
        if self.seed is not None and "seed" not in params and _accepts(factory, "seed"):
            params["seed"] = self.seed
        try:
            key = json.dumps(params, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return factory(**params)
        last = _LAST_BUILT
        if last is not None and last[0] is factory and last[1] == key:
            return last[2]
        problem = factory(**params)
        _LAST_BUILT = (factory, key, problem)
        return problem

    def build_environment(self) -> Environment:
        """Look up the environment model."""
        return get_environment(self.environment)

    def build_network(self) -> Any:
        """Build a fresh cluster network sized to the run."""
        params = dict(self.cluster_params)
        params.setdefault("n_hosts", self.n_ranks)
        return get_cluster(self.cluster, **params)

    def resolve_worker(self) -> str:
        """The concrete worker name this scenario runs.

        ``"auto"`` follows the paper: the environment's default worker
        (the synchronous baseline runs SISC, the multi-threaded
        environments run AIAC).
        """
        if self.algorithm != "auto":
            return self.algorithm
        return self.build_environment().default_worker()

    def resolved_options(self, problem: Optional[Any] = None) -> AIACOptions:
        """Explicit options, or defaults derived from the problem config."""
        if self.options is not None:
            return self.options
        if problem is None:
            problem = self.build_problem()
        cfg = getattr(problem, "config", None)
        eps = getattr(cfg, "inner_eps", None) or getattr(cfg, "eps", 1e-6)
        return AIACOptions(
            eps=eps,
            stability_count=getattr(cfg, "stability_count", 3),
            max_iterations=getattr(
                cfg, "max_inner_iterations", getattr(cfg, "max_iterations", 10_000)
            ),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serializable for plain parameters).

        ``Scenario.from_dict(json.loads(json.dumps(s.to_dict())))``
        rebuilds an equal scenario -- the currency of CLI files and
        process-pool sweeps.
        """
        return {
            "problem": self.problem,
            "environment": self.environment,
            "cluster": self.cluster,
            "algorithm": self.algorithm,
            "n_ranks": self.n_ranks,
            "problem_params": dict(self.problem_params),
            "cluster_params": dict(self.cluster_params),
            "options": None if self.options is None else asdict(self.options),
            "policy_overrides": dict(self.policy_overrides),
            "seed": self.seed,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "balancer": None if self.balancer is None else self.balancer.to_dict(),
            "problem_kind": self.problem_kind,
            "name": self.name,
        }

    def content_hash(self) -> str:
        """Stable hex digest of the scenario's *content* (identity key).

        The digest is SHA-256 over the canonical JSON form
        (``to_dict`` with sorted keys and compact separators), covering
        everything that changes what a run computes -- problem,
        environment, cluster, algorithm, parameters, options, policy
        overrides, seed, fault plan, balancing plan.  The ``name``
        label is excluded: two submissions that differ only in label
        are the same work.  Two scenarios compare equal under
        ``content_hash`` iff a backend would execute them identically,
        which makes the digest the key of the serve-layer result cache
        (:mod:`repro.serve.cache`) and the join key between a
        :meth:`RunResult.to_record` row and its scenario::

            >>> a = Scenario(problem="sparse_linear", name="first")
            >>> b = Scenario(problem="sparse_linear", name="again")
            >>> a.content_hash() == b.content_hash()
            True

        A scenario is a value: the digest is computed once per instance.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            payload = self.to_dict()
            payload.pop("name", None)
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Unknown keys raise, so typos in hand-written scenario files are
        caught instead of silently ignored.  The minimal valid input is
        ``{"problem": "sparse_linear"}``.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {unknown}; known: {sorted(known)}"
            )
        if "problem" not in data:
            raise ValueError("a scenario requires at least a 'problem' name")
        payload = dict(data)
        options = payload.get("options")
        if isinstance(options, Mapping):
            payload["options"] = AIACOptions(**options)
        faults = payload.get("faults")
        if isinstance(faults, Mapping):
            payload["faults"] = FaultPlan.from_dict(faults)
        balancer = payload.get("balancer")
        if isinstance(balancer, Mapping):
            payload["balancer"] = BalancingPlan.from_dict(balancer)
        return cls(**payload)


def scenario_matrix(
    base: Scenario, **axes: Iterable[Any]
) -> List[Scenario]:
    """Cartesian grid of scenarios derived from ``base``.

    Axis names follow :meth:`Scenario.derive` (``field`` or
    ``field__param``); the grid iterates in ``itertools.product`` order
    with the *last* axis varying fastest::

        scenario_matrix(base,
                        environment=["sync_mpi", "pm2"],
                        problem_params__n=[600, 1200])
    """
    import itertools

    names = list(axes)
    values = [list(axis) for axis in axes.values()]
    return [
        base.derive(**dict(zip(names, combo)))
        for combo in itertools.product(*values)
    ]


__all__ = ["Scenario", "scenario_matrix"]
