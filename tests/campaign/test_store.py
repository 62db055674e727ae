"""Tests for the content-addressed result store and its keys."""

import json

import pytest

from repro.campaign.store import (
    ResultStore,
    callable_token,
    code_version_salt,
    result_key,
    workload_token,
)
from repro.errors import CampaignError
from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=300, num_disks=3, seed=21)
    ).to_requests()


@pytest.fixture(scope="module")
def result(trace):
    return run_simulation(trace, "lru", num_disks=3, cache_blocks=64)


class TestResultKey:
    def test_stable(self, trace):
        kwargs = {"policy": "lru", "num_disks": 3, "cache_blocks": 64}
        token = workload_token(trace)
        assert result_key(token, kwargs) == result_key(token, kwargs)

    def test_params_change_key(self, trace):
        token = workload_token(trace)
        a = result_key(token, {"policy": "lru", "cache_blocks": 64})
        b = result_key(token, {"policy": "lru", "cache_blocks": 128})
        assert a != b

    def test_param_order_irrelevant(self, trace):
        token = workload_token(trace)
        a = result_key(token, {"policy": "lru", "cache_blocks": 64})
        b = result_key(token, {"cache_blocks": 64, "policy": "lru"})
        assert a == b

    def test_workload_changes_key(self, trace):
        other = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=300, num_disks=3, seed=22)
        ).to_requests()
        kwargs = {"policy": "lru"}
        assert result_key(workload_token(trace), kwargs) != result_key(
            workload_token(other), kwargs
        )

    def test_salt_changes_key(self, trace):
        token = workload_token(trace)
        kwargs = {"policy": "lru"}
        assert result_key(token, kwargs, salt="a") != result_key(
            token, kwargs, salt="b"
        )

    def test_code_version_salt_is_stable(self):
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 16


class TestWorkloadToken:
    def test_factory_token_includes_args(self):
        def factory(**kw):
            return []

        a = workload_token(factory, {"write_ratio": 0.1})
        b = workload_token(factory, {"write_ratio": 0.2})
        assert a != b
        assert a.startswith("factory:")

    def test_callable_token_reflects_source(self):
        token = callable_token(generate_synthetic_trace_columnar)
        assert "generate_synthetic_trace_columnar" in token
        assert "#" in token  # carries a source hash


class TestResultStore:
    def test_roundtrip(self, tmp_path, trace, result):
        store = ResultStore(tmp_path / "store")
        key = result_key(workload_token(trace), {"policy": "lru"})
        assert key not in store
        assert store.get(key) is None
        store.put(key, result, params={"policy": "lru"})
        assert key in store
        assert store.get(key) == result
        assert len(store) == 1

    def test_overwrite_is_last_write_wins(self, tmp_path, result):
        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, result)
        store.put("ab" + "0" * 62, result)
        assert len(store) == 1

    def test_sharded_layout(self, tmp_path, result):
        store = ResultStore(tmp_path / "store")
        key = "cd" + "1" * 62
        store.put(key, result)
        assert (tmp_path / "store" / "cd" / f"{key}.json").exists()

    def test_corrupt_entry_raises(self, tmp_path, result):
        store = ResultStore(tmp_path / "store")
        key = "ef" + "2" * 62
        store.put(key, result)
        path = tmp_path / "store" / "ef" / f"{key}.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            store.get(key)

    def test_stale_tmp_files_swept_on_open(self, tmp_path, result):
        """A crash mid-put leaves a ``*.tmp`` behind; reopening the
        store removes it and the half-written entry is never visible."""
        store = ResultStore(tmp_path / "store")
        key = "ab" + "3" * 62
        store.put(key, result)
        shard = tmp_path / "store" / "ab"
        orphan = shard / f"{key}.json.tmp"
        orphan.write_text('{"half": "written')
        reopened = ResultStore(tmp_path / "store")
        assert not orphan.exists()
        assert reopened.get(key) == result  # the committed entry survives
        assert len(reopened) == 1

    def test_entries_are_json_with_metadata(self, tmp_path, trace, result):
        store = ResultStore(tmp_path / "store")
        key = result_key(workload_token(trace), {"policy": "lru"})
        store.put(key, result, params={"policy": "lru"})
        payload = json.loads(
            (tmp_path / "store" / key[:2] / f"{key}.json").read_text()
        )
        assert payload["key"] == key
        assert payload["params"] == {"policy": "lru"}
        assert payload["result"]["label"] == "lru"
