"""Tests for campaign spec files, the analysis loaders, and the CLI."""

import csv
import hashlib
import json

import pytest

import repro.campaign.store as campaign_store
from repro.analysis.campaigns import (
    campaign_summary,
    journal_point_records,
    summary_table,
)
from repro.campaign.journal import RunJournal, load_journal
from repro.campaign.spec import CampaignSpec, generated_trace, run_campaign
from repro.cli import main
from repro.errors import CampaignError
from repro.traces.columnar import ColumnarTrace


def spec_dict(**overrides):
    base = {
        "trace": {
            "workload": "synthetic",
            "params": {"num_requests": 300, "num_disks": 3, "seed": 9},
        },
        "axes": {"policy": ["lru", "fifo"]},
        "num_disks": 3,
        "cache_blocks": 32,
    }
    base.update(overrides)
    return base


class TestCampaignSpec:
    def test_from_dict_minimal(self):
        spec = CampaignSpec.from_dict(spec_dict())
        assert spec.grid_size() == 2
        workload = spec.load_workload()
        assert len(workload) == 300
        assert spec.resolve_num_disks(workload) == 3

    def test_grid_size_is_product(self):
        spec = CampaignSpec.from_dict(
            spec_dict(axes={"policy": ["lru", "fifo"], "dpm": ["practical",
                      "oracle"], "cache_blocks": [32, 64]})
        )
        assert spec.grid_size() == 8

    def test_trace_file_resolved_against_spec_dir(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert main(
            ["generate", "synthetic", "-o", str(trace_path),
             "--requests", "200"]
        ) == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(spec_dict(trace={"file": "t.csv"}))
        )
        spec = CampaignSpec.from_file(spec_path)
        assert spec.name == "spec"
        assert len(spec.load_workload()) == 200

    def test_trace_params_build_factory(self):
        spec = CampaignSpec.from_dict(
            spec_dict(
                axes={"write_ratio": [0.0, 1.0], "policy": ["lru"]},
                trace_params=["write_ratio"],
            )
        )
        factory = spec.load_workload()
        assert callable(factory)
        trace = factory(write_ratio=1.0)
        assert all(r.is_write for r in trace)

    @pytest.mark.parametrize(
        "broken",
        [
            {"axes": {}},
            {"axes": {"policy": []}},
            {"trace": {}},
            {"trace": {"file": "x", "workload": "oltp"}},
            {"trace_params": ["nope"]},
            {"fixed": {"policy": "lru"}},  # collides with the policy axis
            {"bogus_key": 1},
        ],
    )
    def test_invalid_specs_rejected(self, broken):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(spec_dict(**broken))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign spec"):
            CampaignSpec.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_file(bad)

    def test_unknown_workload_rejected(self):
        with pytest.raises(CampaignError, match="unknown workload"):
            generated_trace("tpc-z")

    def test_run_campaign_returns_sweep(self):
        sweep = run_campaign(CampaignSpec.from_dict(spec_dict()))
        assert {p.params["policy"] for p in sweep.points} == {"lru", "fifo"}


class TestColumnarGenerators:
    """oltp, cello and synthetic campaigns generate ``ColumnarTrace``s.

    The pinned store keys and result digests were recorded while these
    families still generated ``list[IORequest]``: switching the trace
    representation must neither change a simulated number nor
    invalidate a stored result. The code-version salt is pinned too,
    since it changes with every source edit.
    """

    PARAMS = {
        "oltp": {
            "duration_s": 60.0, "num_disks": 6, "num_hot_disks": 3, "seed": 3,
        },
        "cello": {"duration_s": 6.0, "num_disks": 5, "seed": 4},
        "synthetic": {"num_requests": 400, "num_disks": 4, "seed": 5},
    }
    #: (store key, sha256 of the result's sorted JSON) per family/mode.
    PINNED = {
        ("oltp", "fixed"): (
            "94e36e866a23f02d31b498168c6f38d68c1d183ffaa65610f4979318056dcfeb",
            "a0a0be35a4e6ae2976f6029e651a34d3bec3b95ef8e6bd7d7b9dc3329c3dca7b",
        ),
        ("oltp", "factory"): (
            "c4bd10534b3fd9c694fe231507959f018b2fae6a748f99b220c44f446bc51fc0",
            "6d8a5bfeec75a02ab9e26a9653b2f8820725a46defc0c30330327d20e8846c9a",
        ),
        ("cello", "fixed"): (
            "6fd38d722b98a0363ae33c12bdc704e40f872d14bfcf0065ae8bc7c304711c25",
            "652d4c30cb6265d50591aad74a6c10a934acfc3b5f8ef1c6e4e921c61969fbdc",
        ),
        ("cello", "factory"): (
            "5bb55db3d5d1690f89b8fa1b62be0d7f5463c4fce42b5b05d9feb875de00496e",
            "8fab751839a14e4b88b7465992a38cf47c5c8b690e146267601b65bf2a038d42",
        ),
        ("synthetic", "fixed"): (
            "128fa47adf2152a6cea131caa65af91f75f352f634183abfce0ae2809c6bf808",
            "7bc3aae806756c506333d193ba0a4fae2c02c6b786f33cfc851acd687581249a",
        ),
        ("synthetic", "factory"): (
            "31112988bf743601304a900379d13e8b859d1118753d2a7da0234d727b77bddc",
            "69e836630ab8d6a9cb3a4241818609eca0c07f829aa998301d1f758afd14a585",
        ),
    }

    @pytest.mark.parametrize("mode", ["fixed", "factory"])
    @pytest.mark.parametrize("family", ["oltp", "cello", "synthetic"])
    def test_point_key_and_digest_unchanged(
        self, family, mode, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            campaign_store, "code_version_salt", lambda: "pinned-salt"
        )
        params = self.PARAMS[family]
        data = {
            "trace": {"workload": family, "params": params},
            "axes": {"policy": ["pa-lru"]},
            "num_disks": params["num_disks"],
            "cache_blocks": 64,
        }
        if mode == "factory":
            data["axes"] = {"write_ratio": [0.3], "policy": ["pa-lru"]}
            data["trace_params"] = ["write_ratio"]
        spec = CampaignSpec.from_dict(data)
        workload = spec.load_workload()
        if mode == "fixed":
            assert isinstance(workload, ColumnarTrace)
        else:
            assert isinstance(workload(write_ratio=0.3), ColumnarTrace)

        store = campaign_store.ResultStore(tmp_path / "store")
        with RunJournal(tmp_path / "j.jsonl") as journal:
            sweep = run_campaign(spec, store=store, journal=journal)
        (key,) = [
            e["key"]
            for e in load_journal(tmp_path / "j.jsonl")
            if e["event"] == "point"
        ]
        (point,) = sweep.points
        digest = hashlib.sha256(
            json.dumps(point.result.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert (key, digest) == self.PINNED[family, mode]


class TestFileTrace:
    """File-trace campaigns load the CSV as a ``ColumnarTrace``.

    The pins were recorded while the file still loaded as a
    ``list[IORequest]`` and ran row by row through ``handle_request``;
    the pa-lru pin equals the generated oltp one above, since the store
    keys a fixed trace by its fingerprint.
    """

    PINNED = {
        "pa-lru": (
            "94e36e866a23f02d31b498168c6f38d68c1d183ffaa65610f4979318056dcfeb",
            "a0a0be35a4e6ae2976f6029e651a34d3bec3b95ef8e6bd7d7b9dc3329c3dca7b",
        ),
        "opg": (
            "cc9e57d10a671f5a2802bf2bb668127e9a848d23ec5fff79e7de25ecf56885bb",
            "6eaa012a077ac5394d90bfd195d4231566c2dce7eb11f27c0f2de5af7cc97157",
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_keys_and_digests_unchanged(
        self, workers, tmp_path, monkeypatch
    ):
        from repro.traces.io import save_trace
        from repro.traces.oltp import (
            OLTPTraceConfig,
            generate_oltp_trace_columnar,
        )

        monkeypatch.setattr(
            campaign_store, "code_version_salt", lambda: "pinned-salt"
        )
        config = OLTPTraceConfig(
            duration_s=60.0, num_disks=6, num_hot_disks=3, seed=3
        )
        save_trace(generate_oltp_trace_columnar(config), tmp_path / "t.csv")
        spec = CampaignSpec.from_dict(
            {
                "trace": {"file": "t.csv"},
                "axes": {"policy": sorted(self.PINNED)},
                "num_disks": 6,
                "cache_blocks": 64,
            },
            base_dir=tmp_path,
        )
        assert isinstance(spec.load_workload(), ColumnarTrace)

        store = campaign_store.ResultStore(tmp_path / "store")
        with RunJournal(tmp_path / "j.jsonl") as journal:
            sweep = run_campaign(
                spec, workers=workers, store=store, journal=journal
            )
        keys = {
            e["params"]["policy"]: e["key"]
            for e in load_journal(tmp_path / "j.jsonl")
            if e["event"] == "point"
        }
        pinned = {}
        for point in sweep.points:
            policy = point.params["policy"]
            digest = hashlib.sha256(
                json.dumps(point.result.to_dict(), sort_keys=True).encode()
            ).hexdigest()
            pinned[policy] = (keys[policy], digest)
        assert pinned == self.PINNED


class TestWorkloadAxis:
    """A 'trace.workload' list becomes an implicit workload axis."""

    def workload_spec(self, **overrides):
        base = {
            "trace": {
                "workload": ["dbms", "tenant"],
                "params": {"duration_s": 5.0},
                "per_workload": {
                    "dbms": {"num_disks": 4},
                    "tenant": {"num_tenants": 2, "disks_per_tenant": 2},
                },
            },
            "axes": {"policy": ["lru", "pa-lru"]},
            "num_disks": 4,
            "cache_blocks": 64,
        }
        base.update(overrides)
        return base

    def test_list_injects_axis_and_trace_param(self):
        spec = CampaignSpec.from_dict(self.workload_spec())
        assert spec.axes["workload"] == ["dbms", "tenant"]
        assert "workload" in spec.trace_params
        assert spec.grid_size() == 4

    def test_factory_merges_per_workload_params(self):
        spec = CampaignSpec.from_dict(self.workload_spec())
        factory = spec.load_workload()
        assert callable(factory)
        dbms = factory(workload="dbms")
        tenant = factory(workload="tenant")
        assert len(dbms) > 0 and len(tenant) > 0
        assert int(max(dbms.disks)) + 1 <= 4
        assert int(max(tenant.disks)) + 1 <= 4

    def test_grid_covers_every_cell(self):
        sweep = run_campaign(CampaignSpec.from_dict(self.workload_spec()))
        cells = {(p.params["workload"], p.params["policy"]) for p in sweep.points}
        assert cells == {
            ("dbms", "lru"),
            ("dbms", "pa-lru"),
            ("tenant", "lru"),
            ("tenant", "pa-lru"),
        }

    @pytest.mark.parametrize(
        "broken",
        [
            {"trace": {"workload": []}},
            {"trace": {"workload": ["dbms", 3]}},
            {
                "trace": {"workload": ["dbms"]},
                "axes": {"workload": ["dbms"], "policy": ["lru"]},
            },
            {
                "trace": {
                    "workload": ["dbms"],
                    "per_workload": {"cdn": {}},
                }
            },
            {"trace": {"workload": "dbms", "per_workload": {"dbms": {}}}},
        ],
    )
    def test_invalid_workload_lists_rejected(self, broken):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(self.workload_spec(**broken))

    def test_columnar_num_disks_inference(self):
        spec = CampaignSpec.from_dict(
            {
                "trace": {
                    "workload": "tenant",
                    "params": {
                        "duration_s": 10.0,
                        "num_tenants": 2,
                        "disks_per_tenant": 3,
                    },
                },
                "axes": {"policy": ["lru"]},
            }
        )
        workload = spec.load_workload()
        assert spec.resolve_num_disks(workload) == 6


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(
        json.dumps(
            spec_dict(
                axes={"policy": ["lru", "fifo"], "cache_blocks": [32, 64]}
            )
        )
    )
    return path


class TestCampaignCLI:
    def test_run_with_store_then_resume(self, spec_file, tmp_path, capsys):
        cache = tmp_path / "store"
        args = ["campaign", str(spec_file), "--workers", "2",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 grid points" in first
        assert "cache hits       0 (0%)" in first

        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "cache hits       4 (100%)" in second
        assert "simulated        0" in second

        journal = cache / "journal.jsonl"
        records = journal_point_records(journal)
        assert len(records) == 4
        assert all(r["cache_hit"] for r in records)
        summary = campaign_summary(journal)
        assert summary["points"] == 4
        assert summary["hit_rate"] == 1.0
        assert summary["computed"] == 0
        assert "campaign summary" in summary_table(journal)

    def test_csv_and_json_export(self, spec_file, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        assert main(
            ["campaign", str(spec_file), "--csv", str(out_csv),
             "--json", str(out_json)]
        ) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"lru", "fifo"}
        payload = json.loads(out_json.read_text())
        assert len(payload) == 4
        assert all("energy_j" in r for r in payload)

    def test_resume_without_cache_dir_errors(self, spec_file, capsys):
        assert main(["campaign", str(spec_file), "--resume"]) == 2
        assert "--resume needs --cache-dir" in capsys.readouterr().err

    def test_resume_with_missing_store_errors(self, spec_file, tmp_path, capsys):
        assert main(
            ["campaign", str(spec_file), "--resume",
             "--cache-dir", str(tmp_path / "nope")]
        ) == 2
        assert "no result store" in capsys.readouterr().err

    def test_bad_spec_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"axes": {"policy": ["lru"]}}))
        assert main(["campaign", str(bad)]) == 2
        assert "missing 'trace'" in capsys.readouterr().err


class TestJournalRecords:
    def test_point_records_flatten_params(self, spec_file, tmp_path):
        cache = tmp_path / "store"
        main(["campaign", str(spec_file), "--cache-dir", str(cache)])
        records = journal_point_records(cache / "journal.jsonl")
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        assert {r["policy"] for r in records} == {"lru", "fifo"}
        assert {r["cache_blocks"] for r in records} == {32, 64}
        assert all(r["status"] == "ok" for r in records)
