"""A tiny string-keyed registry shared by the declarative API.

Problems, cluster presets, worker coroutines and backends are all
addressable by short names so a whole run can be described as a plain
dict (see :mod:`repro.api.scenario`).  Each domain package instantiates
one :class:`Registry` and exposes thin ``register_*`` / ``get_*`` /
``list_*`` wrappers; this module deliberately imports nothing from the
rest of the library so it can sit below every other package.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class Registry:
    """Mapping from short names to registered objects."""

    def __init__(self, kind: str):
        self.kind = kind
        self._items: Dict[str, Any] = {}

    def register(
        self, name: Optional[str] = None, *, overwrite: bool = False
    ) -> Callable:
        """Decorator (or direct call) adding an object under ``name``.

        Usable as ``@registry.register`` (keyed by ``__name__``), as
        ``@registry.register("short_name")``, or directly as
        ``registry.register("short_name")(obj)``.
        """

        def add(obj: Any) -> Any:
            key = name if name is not None else getattr(obj, "__name__", None)
            if not key:
                raise ValueError(f"cannot infer a {self.kind} name for {obj!r}")
            if key in self._items and not overwrite:
                raise ValueError(f"{self.kind} {key!r} already registered")
            self._items[key] = obj
            return obj

        if callable(name) and not isinstance(name, str):
            obj, name = name, None
            return add(obj)
        return add

    def get(self, name: str) -> Any:
        try:
            return self._items[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: {sorted(self._items)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._items)

    def __contains__(self, name: str) -> bool:
        return name in self._items


__all__ = ["Registry"]
