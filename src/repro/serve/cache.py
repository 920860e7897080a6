"""On-disk result cache keyed by scenario content-hash + seed.

Repeat submissions are the common case of a scenario service (sweep
clients probing the same grid, calibration loops revisiting
candidates), and a run is a pure function of its scenario -- so the
cache key is :meth:`repro.api.Scenario.content_hash` (which covers
every content field, label excluded) joined with the seed, and the
value is the run's :meth:`repro.api.RunResult.to_record` JSON.

Entries are one file per key under the cache root, written atomically
(temp file + ``os.replace``), so a daemon killed mid-write can never
leave a half-record behind: the reader either sees the old state or
the complete new record.  A corrupt entry (truncated by an unclean
filesystem, say) is treated as a miss and deleted.  The cache is
shared across daemon restarts -- it *is* half of what makes the
service resumable (the journal is the other half).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.api.scenario import Scenario


class ResultCache:
    """A directory of ``<key>.json`` run records with hit/miss counters.

    ::

        cache = ResultCache(state_dir / "cache")
        key = ResultCache.key_for(scenario)
        record = cache.get(key)
        if record is None:
            record = backend.run(scenario).to_record()
            cache.put(key, record)
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(scenario: Scenario) -> str:
        """The cache key of a scenario: ``<content-hash>-s<seed>``.

        The seed is already part of the content hash; naming it in the
        key keeps entries greppable by seed on disk and makes the
        key's two identity components explicit.
        """
        seed = "none" if scenario.seed is None else str(scenario.seed)
        return f"{scenario.content_hash()}-s{seed}"

    def path_for(self, key: str) -> Path:
        """Where a key's record lives (exists only once cached)."""
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or ``None`` (counted as a miss).

        A corrupt or unreadable entry is deleted and reported as a
        miss, so one bad file can never wedge its scenario.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("cache entry is not a JSON object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return record

    def get_checked(
        self,
        key: str,
        require_solution: bool = False,
        backend: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Like :meth:`get`, but a hit must also *satisfy the caller*.

        The sweep executor shares this cache with the serve daemon, so
        an entry under the right key can still be unusable for a given
        sweep: written without per-rank solutions when the caller wants
        ``include_solution``, or produced by a different backend than
        the one being swept.  Such an entry is reported as a miss --
        left in place, not evicted, because it is still a perfectly
        good answer for the consumer that wrote it; the caller simply
        re-executes and overwrites.
        """
        record = self.get(key)
        if record is None:
            return None
        if require_solution and not all(
            "solution" in rep for rep in record.get("reports", [])
        ):
            self.hits -= 1
            self.misses += 1
            return None
        if backend is not None and record.get("backend") not in (None, backend):
            self.hits -= 1
            self.misses += 1
            return None
        return record

    def put(self, key: str, record: Dict[str, Any]) -> Path:
        """Store a record atomically; last writer wins.

        One ``json.dumps`` call encodes the record (``json.dump`` would
        stream it through the pure-Python encoder; the bytes are the
        same) before the temp file exists, so a record that cannot be
        encoded leaves no file behind.
        """
        data = json.dumps(record, separators=(",", ":")).encode("utf-8")
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=str(self.root)
        )
        try:
            # A buffered binary file writes every byte or raises.
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        """Entry count plus the lifetime hit/miss/corrupt counters."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }


__all__ = ["ResultCache"]
