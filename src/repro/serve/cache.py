"""LRU tile cache keyed on coarse-input content hashes.

Downscaling is a pure function of the coarse input, so two requests
carrying byte-identical coarse fields must produce byte-identical fine
fields — which makes the served output cacheable by *content*, not by
request identity.  :func:`content_key` hashes dtype + shape + raw bytes
(SHA-256), so equal-content arrays at different memory addresses, or
with different strides, collide onto the same key by construction.

The cache itself is a plain LRU over an :class:`~collections.OrderedDict`:
``get`` (and its batched form ``get_many``, one call per request of
units) refreshes recency, ``put`` evicts the least-recently-used entry
once capacity is exceeded.  Stored arrays are defensively copied and
frozen (``writeable = False``) so a hit can never be corrupted by a
caller mutating its input or output in place — the determinism contract
of :mod:`repro.serve` depends on cached bytes staying exactly as
computed.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "TileCache", "content_key"]


def content_key(array: np.ndarray) -> str:
    """SHA-256 content hash of an array: dtype, shape, and raw bytes.

    Strides and base offset do not participate — a transposed-then-copied
    view and a fresh array with the same values hash identically.
    """
    a = np.ascontiguousarray(array)
    h = hashlib.sha256()
    # length-prefixed header fields so ("f4", (12,)) never collides with
    # ("f", (412,)) through string concatenation
    for field in (a.dtype.str, repr(a.shape)):
        h.update(len(field).to_bytes(4, "little"))
        h.update(field.encode())
    # hash straight out of the array's buffer: ``a.data`` is a zero-copy
    # memoryview over the C-contiguous storage, so no tobytes() copy
    h.update(a.data)
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of cache traffic since construction (or the last reset)."""

    capacity: int
    size: int
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


_MISS = object()


class TileCache:
    """Bounded LRU mapping content keys to downscaled output tiles.

    Invariants (the property suite in ``tests/serve/test_cache.py``
    checks these against a reference model under random traffic):

    * ``len(cache) <= capacity`` always;
    * ``hits + misses`` == keys looked up (one per ``get``, one per key
      of a ``get_many``);
    * ``insertions - evictions == len(cache)`` (re-putting a resident
      key updates in place — neither an insertion nor an eviction);
    * a ``get`` or re-``put`` makes its key the most recently used, so
      the evicted key is always the oldest-untouched one.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    # ------------------------------------------------------------------ #
    # core verbs
    # ------------------------------------------------------------------ #
    def get(self, key: str, default=None):
        """Look up ``key``, refreshing its recency; counts a hit or miss.

        Hits return the stored array directly, with no defensive copy:
        every resident array is frozen (``writeable = False``) by
        :meth:`put`, so a caller cannot corrupt the cached bytes through
        the returned reference.
        """
        return self.get_many((key,), default)[0]

    def get_many(self, keys, default=None) -> list:
        """``[self.get(key, default) for key in keys]`` as one call — the
        one implementation of the hit, miss and recency rule.

        Keys are probed in order: each resident key is refreshed to most
        recently used (a key repeated in ``keys`` twice) and counts a
        hit, every other key counts a miss.  A lookup never inserts or
        evicts, so whether a key hits does not depend on its position.
        """
        entries = self._entries
        refresh = entries.move_to_end
        out = []
        hits = 0
        for key in keys:
            value = entries.get(key, _MISS)
            if value is _MISS:
                value = default
            else:
                refresh(key)
                hits += 1
            out.append(value)
        self.hits += hits
        self.misses += len(out) - hits
        return out

    def put(self, key: str, value) -> str | None:
        """Insert or refresh ``key``; returns the evicted key, if any.

        Writable array values are stored as frozen copies so later
        in-place mutation of the caller's buffer cannot change what a
        future hit returns.  Arrays that arrive already frozen
        (``writeable`` flag off — e.g. tile cores cropped by
        :class:`~repro.core.tiles.TilePlan`) are stored as-is: the
        caller has promised immutability, so the defensive copy would be
        pure overhead.
        """
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value = value.copy()
            value.flags.writeable = False
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return None
        self._entries[key] = value
        self.insertions += 1
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            return evicted
        return None

    # ------------------------------------------------------------------ #
    # inspection (none of these touch recency or traffic counters)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> list[str]:
        """Resident keys, least- to most-recently used."""
        return list(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(capacity=self.capacity, size=len(self._entries),
                          hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          insertions=self.insertions)

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate
