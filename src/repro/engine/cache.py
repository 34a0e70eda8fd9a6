"""Content-addressed result caching for the execution engine.

A :class:`ResultCache` memoises finished :class:`~repro.api.result.SolveResult`
objects keyed on ``(QUBO fingerprint, backend, opts, seed)``.  Because the
fingerprint is a canonical content hash (see
:meth:`repro.qubo.model.QuboModel.fingerprint`) and the seed pins the RNG
stream, a hit is byte-equivalent to re-running the solve — which is what
lets the engine skip dispatch entirely on repeated workloads.

The cache itself is an in-memory LRU of pickled blobs (pickling on ``put``
/ unpickling on ``get`` gives every caller an independent copy, so mutating
a returned result can never corrupt the cache).  The durable cross-process
tier is the call's :class:`~repro.engine.store.EngineStore`: every method
that can reach it takes ``store=`` per call, so a lookup falls through to
the store's :class:`~repro.engine.store.SharedCacheTier` (a SQLite layer
with LRU-by-last-access eviction under a byte budget and a
structure-signature index that :meth:`ResultCache.prefetch` warms the
memory LRU from) only on the calls that pass one.  A call without a store
neither reads nor writes one.

Cache hits must not perturb the RNG stream of neighbouring batch items.
The engine guarantees this structurally: per-item child seeds are derived
from the batch seed *before* any cache lookup, so skipping a solve never
shifts what the other items draw.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.exceptions import ReproError
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - type-only; store.py imports this module
    from repro.engine.store import EngineStore


def make_cache_key(fingerprint: str, backend_key: str, opts_key: str, seed: int) -> str:
    """Flatten the ``(fingerprint, backend, opts, seed)`` tuple into one hex key."""
    blob = "\x1f".join((fingerprint, backend_key, opts_key, str(int(seed))))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """In-memory LRU result cache; the durable tier is passed per call.

    Args:
        maxsize: In-memory entry cap; least-recently-used entries are
            evicted first.

    ``get``, ``lookup``, ``put`` and ``prefetch`` take the call's
    :class:`~repro.engine.store.EngineStore` as ``store=``: a memory miss
    then consults the store's shared tier (promoting a hit into memory),
    and every ``put`` writes through with the entry's structure signature
    so :meth:`prefetch` can warm by shard.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ReproError("ResultCache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    # -- core protocol ---------------------------------------------------------

    def get(self, key: str, store: "EngineStore | None" = None):
        """Return a fresh copy of the cached result, or ``None`` on a miss."""
        return self.lookup(key, store)[0]

    def lookup(
        self, key: str, store: "EngineStore | None" = None
    ) -> "tuple[object | None, str | None]":
        """Like :meth:`get`, but also report which tier served the hit.

        Returns ``(value, tier)`` with ``tier`` one of ``"memory"``,
        ``"store"``, or ``None`` on a miss — the feed for ``cache.lookup``
        trace spans and tiered cache telemetry.  ``store`` is consulted
        only on a memory miss; a store hit is promoted into memory and
        counted in ``store_hits``.

        An entry that fails to unpickle (truncated by a full disk, or
        corrupted externally) is treated as a miss and evicted from memory
        and from ``store`` — a damaged entry must never surface as a
        result, and dropping it lets the next ``put`` heal the cache.
        """
        tier = None
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                tier = "memory"
        if blob is None and store is not None:
            blob = store.cache.get(key)
            if blob is not None:
                tier = "store"
        if blob is not None:
            try:
                value = pickle.loads(blob)
            except Exception:
                self._evict_corrupt(key, store)
                blob = None
                tier = None
        with self._lock:
            if blob is None:
                self.misses += 1
                return None, None
            self.hits += 1
            if tier == "store":
                self.store_hits += 1
                self._store_memory(key, blob)
        return value, tier

    def put(
        self,
        key: str,
        result,
        signature: "str | None" = None,
        store: "EngineStore | None" = None,
    ) -> None:
        """Store ``result`` under ``key`` (overwrites an existing entry).

        With ``store``, the entry is also written through to its shared
        tier, recorded under ``signature`` (the producing shard's
        structure signature) so :meth:`prefetch` can warm the memory LRU
        by structure.  The shared tier's upsert is one SQLite transaction,
        so a crash never leaves a torn entry there.
        """
        blob = pickle.dumps(result)
        with self._lock:
            self._store_memory(key, blob)
        if store is not None:
            store.cache.put(key, blob, signature=signature)

    def prefetch(self, signature: "str | None", store: "EngineStore | None") -> int:
        """Warm the memory LRU with every stored entry for one structure.

        The scheduler calls this the moment it routes a shard: any result
        a sibling process already solved for this structure signature is
        pulled out of ``store``'s shared tier *before* dispatch, so the
        batch's cache lookups hit memory instead of SQLite.  Returns the
        number of entries warmed; a no-op (0) without a store.  Prefetched
        entries do not touch the hit/miss counters — they are staging, not
        lookups.
        """
        if store is None or signature is None:
            return 0
        with obs.span("store.prefetch", signature=signature) as prefetch_span:
            entries = store.cache.entries_for(signature)
            with self._lock:
                for key, blob in entries:
                    self._store_memory(key, blob)
            prefetch_span.set(warmed=len(entries))
        return len(entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry and reset hit/miss counters.

        Stores are left untouched (they may be shared with other
        processes); a store's own entries leave by its byte budget.
        """
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.store_hits = 0

    @property
    def stats(self) -> dict:
        """``{"hits", "misses", "store_hits", "entries"}`` snapshot.

        ``store_hits`` counts the subset of ``hits`` served by a durable
        store's shared tier — the cross-process reuse the benchmarks
        report.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "store_hits": self.store_hits,
                "entries": len(self._entries),
            }

    # -- internals -------------------------------------------------------------

    def _store_memory(self, key: str, blob: bytes) -> None:
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _evict_corrupt(self, key: str, store: "EngineStore | None") -> None:
        """Drop a damaged entry from memory and from ``store``."""
        with self._lock:
            self._entries.pop(key, None)
        if store is not None:
            store.cache.evict(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({len(self)} entries, hits={self.hits}, misses={self.misses})"


#: Process-wide cache used when callers pass ``cache=True``.
_DEFAULT_CACHE: "ResultCache | None" = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The lazily created process-global cache behind ``cache=True``."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ResultCache()
        return _DEFAULT_CACHE


def resolve_cache(spec) -> "ResultCache | None":
    """Normalise every accepted ``cache=`` spelling to a cache (or ``None``).

    ``None`` / ``False`` disable caching, ``True`` selects the process-global
    default, and a ready :class:`ResultCache` passes through.  A path is
    rejected: the durable, cross-process result tier is ``store=`` (an
    :class:`~repro.engine.store.EngineStore` path).
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return default_cache()
    if isinstance(spec, ResultCache):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        raise ReproError(
            f"cache={str(spec)!r}: a cache is in memory only; pass store=<path> "
            "for a durable cross-process result tier"
        )
    raise ReproError(
        f"cache must be None/False, True, or a ResultCache; got {type(spec).__name__}"
    )
