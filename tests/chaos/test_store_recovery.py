"""Crash-consistency and fsck recovery of the history store.

The tentpole invariant: crash a store append at *every* filesystem
step it performs, reopen, run ``fsck()``, and the store must hold
either exactly the old rows or exactly the old+new rows — never a
torn in-between — with ``verify()`` passing afterwards.
"""

import numpy as np
import pytest

from repro.chaos import ChaosFS, corrupt_file, crash_sweep
from repro.data import ExecutionDataset, dataset_fingerprint
from repro.errors import DatasetFormatError
from repro.store import HistoryStore, QUARANTINE_DIR

from .conftest import make_dataset

DS_SEED = make_dataset(n=30, seed=1)
DS_NEW = make_dataset(n=30, seed=2)


def _setup(root):
    store = HistoryStore.create(root / "store", "synth", ("alpha", "beta"))
    store.append(DS_SEED, source="seed")
    return {
        "rows_old": store.n_rows,
        "rows_new": store.n_rows + len(DS_NEW),
        "fp_old": store.fingerprint,
    }


def _workload(root, ctx):
    HistoryStore.open(root / "store").append(DS_NEW, source="round-0/bundle-0")


def _check(root, ctx):
    store = HistoryStore.open(root / "store")
    store.fsck(repair=True)
    store = HistoryStore.open(root / "store")
    assert store.n_rows in (ctx["rows_old"], ctx["rows_new"]), (
        f"torn store: {store.n_rows} rows"
    )
    store.verify()  # every surviving fingerprint must match
    if store.n_rows == ctx["rows_old"]:
        assert store.fingerprint == ctx["fp_old"]
        # the crashed append must remain re-appendable exactly-once
        assert not store.has_source("round-0/bundle-0")
        store.append(DS_NEW, source="round-0/bundle-0")
        assert store.n_rows == ctx["rows_new"]
    else:
        assert store.has_source("round-0/bundle-0")


class TestAppendCrashSweep:
    def test_recover_to_old_or_new_at_every_crashpoint(self, tmp_path):
        report = crash_sweep(_setup, _workload, _check, tmp_path, seed=7)
        assert report.ok, report.summary()
        # the sweep must actually cover every durability boundary of an
        # append: shard column writes, shard commit, manifest replace
        ids = set(report.step_ids)
        for expected in (
            "store.shard.column:write",
            "store.shard:before-rename",
            "store.shard:after-rename",
            "store.manifest:write",
            "store.manifest:before-rename",
            "store.manifest:after-rename",
        ):
            assert expected in ids, f"{expected} not exercised"
        assert report.steps_recorded >= 15

    def test_enospc_mid_append_leaves_store_consistent(self, tmp_path):
        ctx = _setup(tmp_path)
        store = HistoryStore.open(tmp_path / "store")
        import errno

        fs = ChaosFS(seed=0).fail_op(
            "store.shard.column:write", err=errno.ENOSPC
        )
        with fs.install():
            with pytest.raises(OSError):
                store.append(DS_NEW, source="round-0/bundle-0")
        store = HistoryStore.open(tmp_path / "store")
        assert store.n_rows == ctx["rows_old"]
        store.fsck(repair=True)
        HistoryStore.open(tmp_path / "store").verify()

    def test_failed_manifest_write_commits_nothing(self, tmp_path):
        import errno

        store = HistoryStore.create(tmp_path / "store", "synth", ("alpha", "beta"))
        a, b, c = (make_dataset(n=30, seed=s) for s in (11, 12, 13))
        store.append(a, source="a")
        before = (store.n_rows, store.shard_infos, store.fingerprint)
        fs = ChaosFS(seed=0).fail_op("store.manifest:write", err=errno.ENOSPC)
        with fs.install():
            with pytest.raises(OSError) as exc_info:
                store.append(b, source="b")
        assert exc_info.value.errno == errno.ENOSPC
        assert (store.n_rows, store.shard_infos, store.fingerprint) == before
        store.append(c, source="c")
        for view in (store, HistoryStore.open(tmp_path / "store")):
            assert view.sources() == ["a", "c"]
            view.verify()
            assert view.fingerprint == dataset_fingerprint(
                ExecutionDataset.concat([a, c])
            )


class TestFsck:
    def _store(self, tmp_path, n_shards=3):
        store = HistoryStore.create(tmp_path / "store", "synth", ("alpha", "beta"))
        for i in range(n_shards):
            store.append(make_dataset(n=30, seed=i), source=f"chunk-{i}")
        return HistoryStore.open(tmp_path / "store")

    def test_clean_store_is_clean(self, tmp_path):
        store = self._store(tmp_path)
        report = store.fsck(repair=True)
        assert report.clean and not report.repaired
        assert report.shards_checked == 3
        assert report.rows_retained == store.n_rows
        assert "clean" in report.summary()

    def test_bitflip_classified_and_quarantined(self, tmp_path):
        store = self._store(tmp_path)
        rows = store.n_rows
        victim = store.root / "shards" / "shard-00001" / "runtime.npy"
        corrupt_file(victim, mode="bitflip", amount=1, seed=3)
        with pytest.raises(DatasetFormatError):
            store.verify()  # detect-only path still raises
        report = store.fsck(repair=True)
        assert report.damaged == {"shard-00001": "hash-mismatch"}
        assert report.quarantined == ["shard-00001"]
        assert (store.root / QUARANTINE_DIR / "shard-00001").is_dir()
        reopened = HistoryStore.open(store.root)
        assert reopened.n_rows == rows - 30
        reopened.verify()
        assert reopened.has_source("chunk-0") and reopened.has_source("chunk-2")
        assert not reopened.has_source("chunk-1")

    def test_missing_column_classified(self, tmp_path):
        store = self._store(tmp_path)
        (store.root / "shards" / "shard-00002" / "nprocs.npy").unlink()
        report = store.fsck(repair=True)
        assert report.damaged == {"shard-00002": "missing-column"}
        HistoryStore.open(store.root).verify()

    def test_truncated_column_classified(self, tmp_path):
        store = self._store(tmp_path)
        victim = store.root / "shards" / "shard-00000" / "X.npy"
        corrupt_file(victim, mode="truncate", amount=victim.stat().st_size // 2)
        report = store.fsck(repair=True)
        assert list(report.damaged) == ["shard-00000"]
        assert report.damaged["shard-00000"] in (
            "unreadable-column", "row-mismatch", "hash-mismatch"
        )
        HistoryStore.open(store.root).verify()

    def test_garbage_column_classified(self, tmp_path):
        store = self._store(tmp_path)
        victim = store.root / "shards" / "shard-00000" / "rep.npy"
        corrupt_file(victim, mode="garbage", amount=64, seed=0)
        report = store.fsck(repair=True)
        assert report.damaged["shard-00000"] == "unreadable-column"
        HistoryStore.open(store.root).verify()

    def test_missing_shard_not_quarantined_but_dropped(self, tmp_path):
        import shutil

        store = self._store(tmp_path)
        shutil.rmtree(store.root / "shards" / "shard-00001")
        report = store.fsck(repair=True)
        assert report.damaged == {"shard-00001": "missing-shard"}
        assert report.quarantined == []
        assert HistoryStore.open(store.root).n_rows == 60

    def test_orphan_tmp_swept_and_orphan_shard_quarantined(self, tmp_path):
        store = self._store(tmp_path)
        rows = store.n_rows
        tmp_dir = store.root / "shards" / ".tmp-shard-00003"
        tmp_dir.mkdir()
        (tmp_dir / "X.npy").write_bytes(b"partial")
        orphan = store.root / "shards" / "shard-00099"
        orphan.mkdir()
        (orphan / "X.npy").write_bytes(b"committed but unreferenced")
        report = store.fsck(repair=True)
        assert report.damaged[".tmp-shard-00003"] == "orphaned-tmp"
        assert report.damaged["shard-00099"] == "orphaned-shard"
        assert ".tmp-shard-00003" in report.orphans_removed
        assert not tmp_dir.exists()
        assert not orphan.exists()
        assert (store.root / QUARANTINE_DIR / "shard-00099").is_dir()
        reopened = HistoryStore.open(store.root)
        assert reopened.n_rows == rows  # intact rows untouched
        reopened.verify()

    def test_repair_false_only_reports(self, tmp_path):
        store = self._store(tmp_path)
        victim = store.root / "shards" / "shard-00000" / "runtime.npy"
        corrupt_file(victim, mode="bitflip", seed=1)
        report = store.fsck(repair=False)
        assert report.damaged and not report.repaired
        assert report.quarantined == []
        assert victim.exists()  # nothing moved

    def test_all_shards_damaged_reopens_empty(self, tmp_path):
        store = self._store(tmp_path, n_shards=2)
        for name in ("shard-00000", "shard-00001"):
            corrupt_file(
                store.root / "shards" / name / "runtime.npy",
                mode="bitflip", seed=1,
            )
        report = store.fsck(repair=True)
        assert report.rows_retained == 0
        reopened = HistoryStore.open(store.root)
        assert reopened.n_rows == 0
        assert reopened.fingerprint is None
        reopened.verify()

    def test_quarantine_name_collision_gets_suffix(self, tmp_path):
        store = self._store(tmp_path)
        corrupt_file(
            store.root / "shards" / "shard-00001" / "runtime.npy",
            mode="bitflip", seed=1,
        )
        store.fsck(repair=True)
        # a later append names its shard past the highest listed one;
        # corrupt that shard too
        store = HistoryStore.open(store.root)
        store.append(make_dataset(n=30, seed=9), source="again")
        assert store.shard_infos[-1]["name"] == "shard-00003"
        corrupt_file(
            store.root / "shards" / "shard-00003" / "runtime.npy",
            mode="bitflip", seed=2,
        )
        # put a colliding name into quarantine to force the suffix path
        (store.root / QUARANTINE_DIR / "shard-00003").mkdir()
        report = HistoryStore.open(store.root).fsck(repair=True)
        assert report.quarantined == ["shard-00003.1"]

    def test_append_after_middle_quarantine_keeps_every_survivor(self, tmp_path):
        store = self._store(tmp_path)
        corrupt_file(
            store.root / "shards" / "shard-00001" / "runtime.npy",
            mode="bitflip", seed=1,
        )
        store.fsck(repair=True)
        store = HistoryStore.open(store.root)
        new = make_dataset(n=30, seed=9)
        store.append(new, source="again")
        names = [e["name"] for e in store.shard_infos]
        assert names == ["shard-00000", "shard-00002", "shard-00003"]
        reopened = HistoryStore.open(store.root)
        reopened.verify()
        expected = [make_dataset(n=30, seed=0), make_dataset(n=30, seed=2), new]
        np.testing.assert_array_equal(
            reopened.to_dataset().runtime,
            np.concatenate([ds.runtime for ds in expected]),
        )

    def test_data_slice_bitexact_after_quarantine(self, tmp_path):
        """Surviving rows must be byte-identical to the original chunks."""
        store = self._store(tmp_path)
        corrupt_file(
            store.root / "shards" / "shard-00001" / "model_runtime.npy",
            mode="bitflip", seed=4,
        )
        store.fsck(repair=True)
        survivors = HistoryStore.open(store.root).to_dataset()
        expected_first = make_dataset(n=30, seed=0)
        np.testing.assert_array_equal(
            survivors.runtime[:30], expected_first.runtime
        )
        np.testing.assert_array_equal(
            survivors.X[30:], make_dataset(n=30, seed=2).X
        )
