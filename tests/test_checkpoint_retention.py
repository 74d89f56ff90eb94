"""CheckpointRetention: bounded, crash-safe rollback-point storage."""

from __future__ import annotations

import json

import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.simulation import CheckpointRetention, Scenario, load_checkpoint
from tests.helpers import retained_checkpoints


def _run():
    vms = [VMSpec(0.05, 0.15, 5.0, 15.0) for _ in range(6)]
    pms = [PMSpec(60.0) for _ in range(3)]
    sc = Scenario(vms, pms, placer=QueuingFFD(rho=0.1, d=16))
    run = sc.start(seed=3)
    run.advance(5)
    return run


class TestRetention:
    def test_save_writes_checkpoint_and_index(self, tmp_path):
        run = _run()
        ret = CheckpointRetention(tmp_path, keep=3)
        path = ret.save(run, label="t5-drift")
        assert path.exists()
        assert "t5-drift" in path.name
        # the saved file is a loadable checkpoint envelope
        payload = load_checkpoint(path)
        assert payload["state"]["time"] == 5
        index = json.loads((tmp_path / "index.json").read_text())
        assert [e["file"] for e in index["checkpoints"]] == [path.name]
        assert retained_checkpoints(tmp_path) == [path]
        run.close()

    def test_prunes_oldest_beyond_keep(self, tmp_path):
        run = _run()
        ret = CheckpointRetention(tmp_path, keep=2)
        paths = [ret.save(run, label=f"n{i}") for i in range(4)]
        kept = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert kept == sorted(p.name for p in paths[-2:])
        assert retained_checkpoints(tmp_path) == paths[-2:]
        run.close()

    def test_label_is_sanitized(self, tmp_path):
        run = _run()
        ret = CheckpointRetention(tmp_path, keep=2)
        path = ret.save(run, label="t5/../../etc passwd!")
        assert path.parent == tmp_path
        assert "/" not in path.name.replace(".json", "").split("-", 2)[-1]
        run.close()

    def test_sequence_continues_across_instances(self, tmp_path):
        run = _run()
        first = CheckpointRetention(tmp_path, keep=3)
        p0 = first.save(run, label="a")
        second = CheckpointRetention(tmp_path, keep=3)
        p1 = second.save(run, label="b")
        # the new instance resumed the counter instead of clobbering
        assert p0.name.split("-")[1] == "000000"
        assert p1.name.split("-")[1] == "000001"
        assert retained_checkpoints(tmp_path) == [p0, p1]
        run.close()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointRetention(tmp_path, keep=0)
