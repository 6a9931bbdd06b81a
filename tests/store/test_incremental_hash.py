"""A non-deferred append hashes the store from memory.

``HistoryStore.append`` keeps each shard's fingerprint columns once it
has hashed them, so an append reads no shard but the one it writes, and
the store hashes it writes must still equal ``dataset_fingerprint`` of
the surviving rows through reopen, fsck, failed appends and caller-side
mutation.
"""

from __future__ import annotations

import errno
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.store.shards as shards
from repro.chaos import ChaosFS, corrupt_file
from repro.data import ExecutionDataset, dataset_fingerprint
from repro.data.io import FINGERPRINT_COLUMNS
from repro.store import HistoryStore

from .conftest import make_dataset

SCALE_SETS = [(8, 16, 32), (8,), (16, 32), (64,)]


def chunk(i: int) -> ExecutionDataset:
    return make_dataset(n=6, scales=SCALE_SETS[i % len(SCALE_SETS)], seed=i)


@pytest.fixture
def opened(monkeypatch):
    """Names of the shard directories whose columns get opened."""
    calls: list[str] = []
    real = shards.open_shard_column

    def counting(directory, name):
        calls.append(Path(directory).name)
        return real(directory, name)

    monkeypatch.setattr(shards, "open_shard_column", counting)
    return calls


class TestAppendReadsOnlyItsShard:
    def test_open_count_does_not_grow_with_earlier_shards(self, tmp_path, opened):
        store = HistoryStore.create(tmp_path / "s", "synth", ("alpha", "beta"))
        counts = []
        for i in range(20):
            opened.clear()
            entry = store.append(chunk(i))
            counts.append(len(opened))
            assert set(opened) <= {entry["name"]}
        assert counts[-1] == counts[0], counts

    def test_reopened_store_reads_earlier_shards_once(self, tmp_path, opened):
        store = HistoryStore.create(tmp_path / "s", "synth", ("alpha", "beta"))
        for i in range(5):
            store.append(chunk(i))
        store = HistoryStore.open(tmp_path / "s")
        earlier = {e["name"] for e in store.shard_infos}
        opened.clear()
        store.append(chunk(5))
        assert Counter(opened) == {n: len(FINGERPRINT_COLUMNS) for n in earlier}
        opened.clear()
        entry = store.append(chunk(6))
        assert set(opened) <= {entry["name"]}


def _check(store: HistoryStore, survivors: list[ExecutionDataset]) -> None:
    """Store hashes == hashes of the in-memory rows that survive."""
    rows = ExecutionDataset.concat(survivors)
    assert store.fingerprint == dataset_fingerprint(rows)
    expected = {
        int(s): dataset_fingerprint(rows.at_scale(int(s))) for s in rows.scales
    }
    assert store.scale_fingerprints == expected
    store.verify()


def _copy(ds: ExecutionDataset) -> ExecutionDataset:
    return ds.select(np.arange(len(ds)))


class TestStoreHashSequence:
    def test_every_step_matches_in_memory_rows(self, tmp_path):
        root = tmp_path / "s"
        store = HistoryStore.create(root, "synth", ("alpha", "beta"))
        survivors: list[ExecutionDataset] = []

        def append(ds: ExecutionDataset) -> None:
            store.append(ds)
            survivors.append(_copy(ds))
            _check(store, survivors)

        for i in range(6):  # appends on one instance
            append(chunk(i))

        store = HistoryStore.open(root)  # reopen, then append
        append(chunk(6))

        # fsck frees the newest shard's name; the next append reuses it
        newest = store.shard_infos[-1]["name"]
        corrupt_file(root / "shards" / newest / "runtime.npy", mode="bitflip", seed=3)
        report = store.fsck(repair=True)
        assert report.quarantined == [newest]
        survivors.pop()
        _check(store, survivors)
        append(chunk(7))
        assert store.shard_infos[-1]["name"] == newest

        # an append that fails on disk changes nothing in memory
        with ChaosFS(seed=0).fail_op(
            "store.shard.column:write", err=errno.ENOSPC
        ).install():
            with pytest.raises(OSError):
                store.append(chunk(8))
        _check(store, survivors)
        append(chunk(9))

        # the caller's arrays may change after the append returns
        ds = chunk(10)
        append(ds)
        ds.X[:] = -1.0
        ds.runtime[:] = 123.0
        ds.nprocs[:] = 8
        append(chunk(11))
        _check(HistoryStore.open(root), survivors)
