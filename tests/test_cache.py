"""The package's one bounded cache, ``repro.cache.LruCache``."""

from collections import OrderedDict
from operator import attrgetter

import numpy as np
import pytest

from repro.cache import LruCache

NBYTES = attrgetter("nbytes")


class TestLruCache:
    def test_lru_eviction_under_budget(self):
        value = np.zeros(128)  # 1024 bytes each
        lru = LruCache(3 * value.nbytes, size_of=NBYTES)
        evicted = [lru.put(key, value.copy()) for key in "abcd"]
        assert evicted == [[], [], [], ["a"]]
        assert len(lru) == 3
        assert lru.peek("a") is None  # least recently used went first
        assert lru.evictions == 1
        assert lru.held == 3 * value.nbytes

    def test_get_refreshes_recency(self):
        value = np.zeros(16)
        lru = LruCache(2 * value.nbytes, size_of=NBYTES)
        lru.put("a", value.copy())
        lru.put("b", value.copy())
        assert lru.get("a") is not None
        lru.put("c", value.copy())
        assert lru.peek("a") is not None and lru.peek("b") is None

    def test_pinned_keys_survive(self):
        value = np.zeros(64)
        lru = LruCache(2 * value.nbytes, size_of=NBYTES)
        lru.pin("base")
        lru.put("base", value.copy())
        for key in "abcde":
            lru.put(key, value.copy())
        assert lru.peek("base") is not None

    def test_unbounded_zero_and_infinite_budgets_accepted(self):
        for budget in (None, 0, 0.0, float("inf"), np.int64(5)):
            LruCache(budget)


class _KeyLru:
    """The cache's contract, one key at a time: the oracle's reference.

    Inserts go in one by one; a batch then evicts from the least
    recently used end, sparing pinned keys and the batch's last key,
    until the summed sizes fit the budget.
    """

    def __init__(self, budget, size_of):
        self.budget, self.size_of = budget, size_of
        self.data, self.pinned = OrderedDict(), set()
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        if key not in self.data:
            self.misses += 1
            return None
        self.hits += 1
        self.data.move_to_end(key)
        return self.data[key]

    def put_many(self, keys, values):
        if not keys:
            return []
        for key, value in zip(keys, values):
            self.data.pop(key, None)
            self.data[key] = value
        evicted = []
        for key in list(self.data):
            if self.budget is None or sum(map(self.size_of, self.data.values())) <= self.budget:
                break
            if key != keys[-1] and key not in self.pinned:
                del self.data[key]
                evicted.append(key)
        self.evictions += len(evicted)
        return evicted


class TestPerKeyOracle:
    """Seeded random get/get_many/put/put_many/pin/peek sequences."""

    OPS = ("get", "get_many", "put", "put_many", "peek", "pin")
    WEIGHTS = (0.2, 0.2, 0.2, 0.3, 0.08, 0.02)

    @pytest.mark.parametrize(
        "budget, sized",
        [(5, False), (0, False), (200, True)],
        ids=["count-5", "count-0", "bytes-200"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_key_reference(self, budget, sized, seed):
        size_of = NBYTES if sized else (lambda value: 1)
        cache = LruCache(budget, size_of=NBYTES if sized else None)
        ref = _KeyLru(budget, size_of)
        rng = np.random.default_rng(seed)

        def key():
            return int(rng.integers(16))

        def batch():
            # Drawn with replacement: keys repeat within a batch.
            return [key() for _ in range(rng.integers(0, 8))]

        def value():
            return np.zeros(int(rng.integers(1, 7)))  # 8 to 48 bytes

        cache.pin(0)
        ref.pinned.add(0)
        replaced = 0
        for _ in range(400):
            op = rng.choice(self.OPS, p=self.WEIGHTS)
            if op == "get":
                k = key()
                assert cache.get(k) is ref.get(k)
            elif op == "get_many":
                keys = batch()
                hit, values = cache.get_many(keys)
                want = [ref.get(k) for k in keys]
                assert hit.dtype == bool and hit.tolist() == [v is not None for v in want]
                assert len(values) == int(hit.sum())
                assert all(a is b for a, b in zip(values, [v for v in want if v is not None]))
            elif op in ("put", "put_many"):
                keys = [key()] if op == "put" else batch()
                values = [value() for _ in keys]
                replaced += sum(k in ref.data for k in keys)
                got = cache.put(keys[0], values[0]) if op == "put" else cache.put_many(keys, values)
                assert got == ref.put_many(keys, values)
            elif op == "peek":
                k = key()
                assert cache.peek(k) is ref.data.get(k)
            else:
                k = key()
                cache.pin(k)
                ref.pinned.add(k)
            assert list(cache._data) == list(ref.data)
            assert all(cache._data[k] is v for k, v in ref.data.items())
            assert (cache.hits, cache.misses, cache.evictions) == (
                ref.hits, ref.misses, ref.evictions,
            )
            assert cache.held == sum(map(size_of, cache._data.values()))
        # The sequence reached every branch it is meant to check.
        assert ref.hits and ref.misses and ref.evictions and replaced
        assert len(ref.pinned) > 1
