"""Unit and property tests for the demux map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xkernel.map import Map, MapError


class TestBindResolve:
    def test_roundtrip(self):
        m = Map(16)
        m.bind(b"key", "value")
        assert m.resolve(b"key") == "value"

    def test_duplicate_bind_rejected(self):
        m = Map(16)
        m.bind(b"k", 1)
        with pytest.raises(MapError):
            m.bind(b"k", 2)

    def test_unresolved_key_raises(self):
        with pytest.raises(MapError):
            Map(16).resolve(b"nope")

    def test_resolve_or_none(self):
        m = Map(16)
        assert m.resolve_or_none(b"nope") is None

    def test_unbind(self):
        m = Map(16)
        m.bind(b"k", 1)
        assert m.unbind(b"k") == 1
        assert m.resolve_or_none(b"k") is None
        assert len(m) == 0

    def test_unbind_unbound_raises(self):
        with pytest.raises(MapError):
            Map(16).unbind(b"ghost")

    def test_collision_chains(self):
        m = Map(2)  # tiny table forces collisions
        for i in range(10):
            m.bind(bytes([i]), i)
        for i in range(10):
            assert m.resolve(bytes([i])) == i

    def test_bucket_count_must_be_power_of_two(self):
        with pytest.raises(MapError):
            Map(3)


class TestOneEntryCache:
    def test_repeat_lookup_hits_cache(self):
        m = Map(16)
        m.bind(b"a", 1)
        m.resolve(b"a")
        m.resolve(b"a")
        assert m.stats.cache_hits == 1
        assert m.stats.cache_hit_rate == pytest.approx(0.5)

    def test_alternating_keys_miss_cache(self):
        m = Map(16)
        m.bind(b"a", 1)
        m.bind(b"b", 2)
        for _ in range(3):
            m.resolve(b"a")
            m.resolve(b"b")
        assert m.stats.cache_hits == 0

    def test_unbind_invalidates_cache(self):
        m = Map(16)
        m.bind(b"a", 1)
        m.resolve(b"a")
        m.unbind(b"a")
        m.bind(b"a", 2)
        assert m.resolve(b"a") == 2

    def test_cache_would_hit_probe_is_stat_free(self):
        m = Map(16)
        m.bind(b"a", 1)
        m.resolve(b"a")
        resolves_before = m.stats.resolves
        assert m.cache_would_hit(b"a")
        assert not m.cache_would_hit(b"b")
        assert m.stats.resolves == resolves_before

    def test_load_cache_sets_the_slot_stat_free(self):
        m = Map(16)
        m.bind(b"a", 1)
        m.bind(b"b", 2)
        m.load_cache(b"b")
        assert m.cache_would_hit(b"b") and m.stats.resolves == 0
        assert m.resolve(b"b") == 2 and m.stats.cache_hits == 1
        m.load_cache(None)
        assert not m.cache_would_hit(b"b")
        with pytest.raises(MapError, match="unbound"):
            m.load_cache(b"zz")
        with pytest.raises(MapError, match="one-entry"):
            Map(16, scheme="lru:2").load_cache(b"a")

    def test_bucket_values_head_first_and_stat_free(self):
        m = Map(1)  # one bucket: every key chains
        for value, key in enumerate((b"a", b"b", b"c")):
            m.bind(key, value)
        assert m.bucket_values(b"a") == [2, 1, 0]  # binds push at the head
        assert m.bucket_depth(b"a") == 2
        m.unbind(b"b")
        assert m.bucket_values(b"zz") == [2, 0]
        assert m.stats.resolves == 0


class TestLazyTraversal:
    def test_traverse_yields_all_bindings(self):
        m = Map(64)
        items = {bytes([i]): i for i in range(20)}
        for k, v in items.items():
            m.bind(k, v)
        assert dict(m.traverse()) == items

    def test_traverse_visits_only_chained_buckets(self):
        m = Map(1024)
        for i in range(8):
            m.bind(bytes([i]), i)
        list(m.traverse())
        assert m.stats.buckets_visited <= 8

    def test_full_scan_visits_every_bucket(self):
        m = Map(1024)
        m.bind(b"x", 1)
        list(m.traverse_full_scan())
        assert m.stats.buckets_visited == 1024

    def test_emptied_buckets_lazily_unlinked(self):
        m = Map(64)
        for i in range(10):
            m.bind(bytes([i]), i)
        for i in range(10):
            m.unbind(bytes([i]))
        assert m.chained_buckets > 0  # lazy: still chained
        assert list(m.traverse()) == []
        assert m.chained_buckets == 0  # cleaned in passing
        assert m.stats.buckets_unlinked > 0

    def test_traversal_after_cleanup_is_cheap(self):
        m = Map(256)
        for i in range(16):
            m.bind(bytes([i]), i)
        for i in range(16):
            m.unbind(bytes([i]))
        list(m.traverse())  # cleanup pass
        m.bind(b"new", 1)
        m.stats.buckets_visited = 0
        assert list(m.traverse()) == [(b"new", 1)]
        assert m.stats.buckets_visited == 1

    def test_interleaved_bind_unbind_traverse(self):
        m = Map(32)
        m.bind(b"a", 1)
        m.bind(b"b", 2)
        m.unbind(b"a")
        assert dict(m.traverse()) == {b"b": 2}
        m.bind(b"c", 3)
        assert dict(m.traverse()) == {b"b": 2, b"c": 3}


class TestMapProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=12), st.integers(), max_size=40
        )
    )
    def test_traverse_equals_contents(self, contents):
        m = Map(16)
        for k, v in contents.items():
            m.bind(k, v)
        assert dict(m.traverse()) == contents
        assert dict(m.traverse_full_scan()) == contents

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.binary(min_size=1, max_size=4)),
            max_size=60,
        )
    )
    def test_model_equivalence_under_mixed_operations(self, ops):
        """The map behaves like a dict under arbitrary bind/unbind
        sequences, with traversal always consistent."""
        m = Map(8)
        model = {}
        for is_bind, key in ops:
            if is_bind:
                if key in model:
                    with pytest.raises(MapError):
                        m.bind(key, 0)
                else:
                    model[key] = len(model)
                    m.bind(key, model[key])
            else:
                if key in model:
                    assert m.unbind(key) == model.pop(key)
                else:
                    with pytest.raises(MapError):
                        m.unbind(key)
            assert len(m) == len(model)
        assert dict(m.traverse()) == model

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=8), min_size=1, max_size=30))
    def test_resolve_after_traversal_cleanup(self, keys):
        m = Map(16)
        for i, k in enumerate(sorted(keys)):
            m.bind(k, i)
        list(m.traverse())
        for i, k in enumerate(sorted(keys)):
            assert m.resolve(k) == i
