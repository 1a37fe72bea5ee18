"""The package's one bounded cache: an LRU mapping under a size budget.

:class:`LruCache` holds the terrain-profile and tower-base caches of
:class:`~repro.core.pipeline.CachingLosChecker` (counted in entries),
and the failure-set solver's matrices, the weather evaluator's stretch
rows and the process-wide storm rows of :mod:`repro.weather.evaluation`
(counted in bytes).  Lookups and inserts come per key or in batches,
whose C-level ``map`` passes leave the same contents, recency order
and counters as the per-key calls would.

An insert returns the keys it evicted instead of calling back: an
eviction callback bound to the cache's owner would make owner and
cache a reference cycle, which keeps every cached value alive until a
full garbage collection.
"""

from __future__ import annotations

import numbers
from collections import OrderedDict, deque
from itertools import compress, repeat
from operator import is_not
from typing import Callable

import numpy as np


def _consume(iterator) -> None:
    """Exhaust an iterator at C speed (for maps run for their effect)."""
    deque(iterator, maxlen=0)


class LruCache:
    """An LRU mapping bounded by the total size of its values.

    Args:
        budget: evict least-recently-used entries once the held size
            exceeds this (``None`` = unbounded).
        size_of: value -> size (default: 1, so ``budget`` counts
            entries).

    Pinned keys (:meth:`pin`) and the last key of each insert are never
    evicted, so the cache can exceed its budget by at most that entry
    plus the pinned ones: a cache that cannot hold the entry it was
    just asked to keep would thrash.  ``None`` marks a miss, so values
    are never ``None``.  ``hits``, ``misses`` and ``evictions`` count
    since construction; ``held`` is the size held now.
    """

    def __init__(self, budget: float | None = None, size_of: Callable | None = None):
        # A positive test, so NaN (which fails every comparison) is
        # rejected too rather than evicting all but the newest entry.
        if budget is not None and not (
            isinstance(budget, numbers.Real) and not isinstance(budget, bool) and budget >= 0
        ):
            raise ValueError(f"budget must be None or a number >= 0, got {budget!r}")
        self._budget = budget
        self._size_of = size_of or (lambda value: 1)
        self._data: OrderedDict = OrderedDict()
        self._pinned: set = set()
        self.held = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def pin(self, key) -> None:
        """Exempt ``key`` from eviction (it need not be present yet)."""
        self._pinned.add(key)

    def peek(self, key, default=None):
        """Look up without touching recency or the counters."""
        return self._data.get(key, default)

    def get(self, key, default=None):
        """Look up, counting a hit or a miss; a hit becomes most recent."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def get_many(self, keys: list) -> tuple[np.ndarray, list]:
        """(boolean hit mask, the hits' cached values in key order).

        Hits are refreshed in key order; a key repeated in the batch
        counts (and refreshes) once per occurrence.
        """
        data = self._data
        found = list(map(data.get, keys))
        hit = np.fromiter(map(is_not, found, repeat(None)), dtype=bool, count=len(found))
        hit_list = hit.tolist()
        _consume(map(data.move_to_end, compress(keys, hit_list)))
        values = list(compress(found, hit_list))
        self.hits += len(values)
        self.misses += len(found) - len(values)
        return hit, values

    def put(self, key, value) -> list:
        """Insert or replace ``key`` as most recent; returns the evicted keys."""
        return self.put_many((key,), (value,))

    def put_many(self, keys, values) -> list:
        """Insert pairs in order, then evict down to the budget.

        A key repeated in the batch keeps its last value and its last
        position.  Eviction runs once, after the whole batch, from the
        least recently used end, sparing pinned keys and the batch's
        last key; counted in entries, that leaves the same entries as
        evicting after every insert.  Returns the evicted keys, least
        recently used first (a replaced key is not evicted).
        """
        batch = dict(zip(keys, values))
        if not batch:
            return []
        data, size_of = self._data, self._size_of
        old = list(map(data.get, batch))
        replaced = compress(old, map(is_not, old, repeat(None)))
        self.held += sum(map(size_of, batch.values())) - sum(map(size_of, replaced))
        data.update(batch)
        _consume(map(data.move_to_end, keys))
        if self._budget is None or self.held <= self._budget:
            return []
        # Pick victims first: an OrderedDict cannot change while iterated.
        keep, held, evicted = keys[-1], self.held, []
        for key in data:
            if key == keep or key in self._pinned:
                continue
            evicted.append(key)
            held -= size_of(data[key])
            if held <= self._budget:
                break
        _consume(map(data.__delitem__, evicted))
        self.held = held
        self.evictions += len(evicted)
        return evicted
