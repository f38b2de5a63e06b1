"""Tests for the durable content-addressed result store."""

import json
import threading

import pytest

from repro.core.parallel import PointOutcome
from repro.core.store import (
    SPILL_RATIO,
    ResultStore,
    canonical_text,
    coerce_store,
    decode_outcome,
    encode_outcome,
    point_fingerprint,
)
from repro.core.sweep import Sweep
from repro.errors import ConfigurationError, InfeasibleError
from repro.obs.ledger import MemoryLedger


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = point_fingerprint({"sig": "s"}, {"x": 1, "y": 2})
        b = point_fingerprint({"sig": "s"}, {"y": 2, "x": 1})
        assert a == b
        assert len(a) == 64

    def test_sensitive_to_context_and_parameters(self):
        base = point_fingerprint({"sig": "s"}, {"x": 1})
        assert point_fingerprint({"sig": "t"}, {"x": 1}) != base
        assert point_fingerprint({"sig": "s"}, {"x": 2}) != base

    def test_sweep_point_key_pins_signature(self):
        sweep = Sweep(axes={"x": [1, 2]})
        other = Sweep(axes={"x": [1, 2, 3]})
        assert sweep.point_key({"x": 1}) != other.point_key({"x": 1})
        assert sweep.point_key({"x": 1}) == sweep.point_key({"x": 1})
        assert sweep.point_key({"x": 1}, seed=7) != sweep.point_key(
            {"x": 1}
        )

    def test_sweep_point_key_is_pinned(self):
        # Stores and queue segments written by earlier versions stay
        # warm only while these bytes hold.
        sweep = Sweep(axes={"seed": [0, 1, 2], "cycles": [500]})
        assert sweep.point_key({"seed": 1, "cycles": 500}) == (
            "23f6c9103ec763147af055514e345a0e4cfcb9f98ccc4234c13987ef312c57fb"
        )
        assert sweep.point_key(
            {"seed": 1, "cycles": 500}, workload="sim", backend="event"
        ) == (
            "62dd1b9c8a44d8e9ad8aaa3b7c44e34208cb6670bb5c4af20db89fb0ebbf8826"
        )

    def test_sweep_run_stores_under_point_key(self):
        sweep = Sweep(axes={"x": [1, 2, 3]})
        store = ResultStore()
        sweep.run(_double, store=store, store_context={"flag": True})
        assert sorted(store.keys()) == sorted(
            sweep.point_key(parameters, flag=True)
            for parameters in sweep.combinations()
        )

    def test_canonical_text_is_compact_and_sorted(self):
        assert canonical_text({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestOutcomeCodec:
    def test_ok_roundtrip(self):
        outcome = PointOutcome(ok=True, value={"area": 1.5, "t": (1, 2)})
        decoded = decode_outcome(encode_outcome(outcome))
        assert decoded.ok and decoded.value == outcome.value

    def test_error_roundtrip(self):
        outcome = PointOutcome(ok=False, error="InfeasibleError('no')")
        decoded = decode_outcome(encode_outcome(outcome))
        assert not decoded.ok and decoded.error == outcome.error

    def test_corrupt_text_decodes_to_none(self):
        assert decode_outcome("{torn") is None
        assert decode_outcome('{"ok":true,"value":"!!!"}') is None

    def test_identical_outcomes_identical_text(self):
        a = encode_outcome(PointOutcome(ok=True, value=[1, 2.5]))
        b = encode_outcome(PointOutcome(ok=True, value=[1, 2.5]))
        assert a == b


class TestResultStore:
    def test_in_memory_roundtrip_and_counters(self):
        store = ResultStore()
        assert store.get("fp") is None
        store.put("fp", "text")
        assert store.get("fp") == "text"
        assert "fp" in store and len(store) == 1
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert not stats["persistent"]

    def test_non_text_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultStore().put("fp", {"not": "text"})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResultStore(maxsize=0)

    def test_persistence_across_restart(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path) as store:
            store.put("a", "1")
            store.put("b", "2")
        reopened = ResultStore(path=path)
        assert reopened.get("a") == "1"
        assert reopened.get("b") == "2"

    def test_torn_tail_ignored_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path) as store:
            store.put("a", "1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "b", "result": "tor')
        reopened = ResultStore(path=path)
        assert reopened.get("a") == "1"
        assert reopened.get("b") is None

    def test_identical_put_skips_spill_append(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path) as store:
            for _ in range(5):
                store.put("a", "1")
            assert store.stats()["spill_records"] == 1

    def test_superseded_records_compacted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path) as store:
            for version in range(20):
                store.put("a", str(version))
            dropped = store.compact()
        assert dropped >= 0
        lines = [
            line
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "fingerprint": "a",
            "result": "19",
        }

    def test_auto_compaction_bounds_spill_growth(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path) as store:
            for version in range(200):
                store.put("hot", str(version))
            # Dead records can never dominate: the spill stays within
            # the floor/ratio envelope instead of growing per put.
            assert store.stats()["spill_records"] <= 9

    def test_auto_compaction_fires_past_spill_ratio(self, tmp_path):
        # Above the floor of 8 records, the spill may hold SPILL_RATIO
        # times the live set before it is rewritten to the live set.
        path = tmp_path / "store.jsonl"
        live = 20
        with ResultStore(path=path) as store:
            for key in range(live):
                store.put(f"k{key}", "v0")
            for key in range(live):
                store.put(f"k{key}", "v1")
            assert store.stats()["spill_records"] == live * SPILL_RATIO
            store.put("k0", "v2")
            assert store.stats()["spill_records"] == live
        assert ResultStore(path=path).get("k0") == "v2"

    def test_spill_ratio_is_not_settable(self, tmp_path):
        assert SPILL_RATIO == 2.0
        with pytest.raises(TypeError, match="compact_ratio"):
            ResultStore(path=tmp_path / "store.jsonl", compact_ratio=3.0)
        assert "merged" not in ResultStore().stats()

    def test_restart_after_evictions_regression(self, tmp_path):
        # Regression for the bounded service cache: the append-only
        # spill used to replay evicted entries on restart, so a
        # restarted cache held more than maxsize and resurrected
        # results that had been evicted for a reason.
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path, maxsize=2) as store:
            for key in "abcde":
                store.put(key, key.upper())
            assert store.stats()["evictions"] == 3
            store.compact()
        reopened = ResultStore(path=path, maxsize=2)
        assert len(reopened) == 2
        assert reopened.keys() == ["d", "e"]
        assert reopened.get("a") is None
        # ...and even without an explicit compact, a reload never
        # holds more than maxsize live entries.
        with ResultStore(path=path, maxsize=1) as smaller:
            assert len(smaller) == 1

    def test_compaction_preserves_lru_order(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path=path, maxsize=3) as store:
            for key in "abc":
                store.put(key, key)
            assert store.get("a") == "a"  # refresh: b is now oldest
            store.compact()
        reopened = ResultStore(path=path, maxsize=3)
        reopened.put("d", "d")
        assert "b" not in reopened  # oldest recency evicted, not "a"
        assert "a" in reopened

    def test_concurrent_puts_stay_consistent(self, tmp_path):
        store = ResultStore(path=tmp_path / "store.jsonl")

        def writer(offset):
            for i in range(50):
                store.put(f"k{offset}-{i}", f"v{i}")

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()
        assert len(ResultStore(path=store.path)) == 200

    def test_coerce_store(self, tmp_path):
        assert coerce_store(None) == (None, False)
        store = ResultStore()
        assert coerce_store(store) == (store, False)
        opened, owned = coerce_store(tmp_path / "s.jsonl")
        assert isinstance(opened, ResultStore) and owned
        opened.close()
        with pytest.raises(ConfigurationError):
            coerce_store(42)


class TestSweepStoreIntegration:
    def test_second_run_served_entirely_from_store(self, tmp_path):
        sweep = Sweep(axes={"x": [1, 2, 3], "y": [10, 20]})
        calls: list = []

        def evaluate(x, y):
            calls.append((x, y))
            return x * y

        store = ResultStore(path=tmp_path / "store.jsonl")
        first = sweep.run(evaluate, store=store)
        assert len(calls) == 6
        second = sweep.run(evaluate, store=store)
        assert len(calls) == 6  # nothing re-evaluated
        assert [p.result for p in second.points] == [
            p.result for p in first.points
        ]

    def test_store_path_coerced_and_durable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        sweep = Sweep(axes={"x": [1, 2, 3]})
        sweep.run(_double, store=path)
        calls: list = []

        def spy(x):
            calls.append(x)
            return 2 * x

        resumed = sweep.run(spy, store=path)
        assert not calls
        assert [p.result for p in resumed.points] == [2, 4, 6]

    def test_failures_not_stored_by_default_run(self, tmp_path):
        # skip_errors quarantines failures AND stores them: a resumed
        # run must not re-raise on a point the store knows failed.
        sweep = Sweep(axes={"x": [1, "bad", 3]})
        store = ResultStore(path=tmp_path / "store.jsonl")
        first = sweep.run(_double, skip_errors=True, store=store)
        assert len(first.failures) == 1
        calls: list = []

        def never(x):
            calls.append(x)
            return x

        resumed = sweep.run(never, skip_errors=True, store=store)
        assert not calls
        assert len(resumed.failures) == 1
        assert resumed.failures[0].parameters == {"x": "bad"}

    def test_corrupt_entry_healed_by_the_next_run(self, tmp_path):
        path = tmp_path / "store.jsonl"
        sweep = Sweep(axes={"x": [1, 2]})
        key = sweep.point_key({"x": 1})
        with ResultStore(path=path) as store:
            store.put(key, "not an encoded outcome")
        calls: list = []

        def spy(x):
            calls.append(x)
            return 2 * x

        with ResultStore(path=path) as store:
            sweep.run(spy, store=store)
            assert decode_outcome(store.get(key)) == PointOutcome(
                ok=True, value=2
            )
        assert calls == [1, 2]
        with ResultStore(path=path) as store:
            healed = sweep.run(spy, store=store)
        assert calls == [1, 2]  # served, not re-evaluated
        assert [p.result for p in healed.points] == [2, 4]

    def test_store_context_partitions_entries(self, tmp_path):
        sweep = Sweep(axes={"x": [1, 2]})
        store = ResultStore(path=tmp_path / "store.jsonl")
        calls: list = []

        def evaluate(x):
            calls.append(x)
            return x

        sweep.run(evaluate, store=store, store_context={"seed": 1})
        sweep.run(evaluate, store=store, store_context={"seed": 2})
        assert len(calls) == 4  # different context -> different keys
        sweep.run(evaluate, store=store, store_context={"seed": 1})
        assert len(calls) == 4  # same context -> all served

    def test_store_context_without_store_rejected(self):
        with pytest.raises(ConfigurationError):
            Sweep(axes={"x": [1]}).run(
                _double, store_context={"seed": 1}
            )

    def test_store_hits_recorded_in_ledger(self, tmp_path):
        sweep = Sweep(axes={"x": [1, 2, 3]})
        store = ResultStore(path=tmp_path / "store.jsonl")
        sweep.run(_double, store=store)
        ledger = MemoryLedger(run_id="store-hits")
        sweep.run(_double, store=store, ledger=ledger)
        hits = [e for e in ledger.events if e["kind"] == "store_hits"]
        assert len(hits) == 1 and hits[0]["points"] == 3
        starts = [e for e in ledger.events if e["kind"] == "run_start"]
        assert starts and starts[0]["store"] is True


def _double(x):
    if x == "bad":
        raise InfeasibleError("bad point")
    return 2 * x
