"""Chunked builds must be bit-identical to in-memory ones.

The store's fingerprints are chunking-invariant by construction: the
hash streams columns in canonical order across shard boundaries, so a
store built from one shard, many uniform shards, or shards of shuffled
ragged sizes must produce the same manifest fingerprints, the same
``to_dataset`` arrays, and — since fits are deterministic in their
inputs — identical downstream predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TwoLevelModel
from repro.data import dataset_fingerprint
from repro.store import DatasetExtractor, HistoryStore, IngestPipeline

from .conftest import make_dataset


def build_store(root, dataset, chunk_sizes):
    """Append ``dataset`` split into consecutive chunks of the given sizes."""
    store = HistoryStore.create(root, dataset.app_name, dataset.param_names)
    start = 0
    for size in chunk_sizes:
        stop = min(start + size, len(dataset))
        if stop == start:
            break
        store.append(dataset.select(np.arange(start, stop)))
        start = stop
    if start < len(dataset):
        store.append(dataset.select(np.arange(start, len(dataset))))
    return store


@pytest.fixture(scope="module")
def big_dataset():
    return make_dataset(n=240, scales=(8, 16, 32, 64), seed=42)


CHUNKINGS = {
    "one-chunk": [1000],
    "uniform": [48] * 5,
    "ragged-shuffled": [7, 101, 3, 64, 29, 17, 50],
}


class TestChunkingInvariance:
    @pytest.mark.parametrize("name", sorted(CHUNKINGS))
    def test_store_fingerprint_matches_in_memory(
        self, tmp_path, big_dataset, name
    ):
        store = build_store(tmp_path / name, big_dataset, CHUNKINGS[name])
        assert store.fingerprint == dataset_fingerprint(big_dataset)

    def test_all_chunkings_agree_on_manifest_fingerprints(
        self, tmp_path, big_dataset
    ):
        stores = {
            name: build_store(tmp_path / name, big_dataset, sizes)
            for name, sizes in CHUNKINGS.items()
        }
        fps = {s.fingerprint for s in stores.values()}
        assert len(fps) == 1
        scale_fps = [s.scale_fingerprints for s in stores.values()]
        assert all(sf == scale_fps[0] for sf in scale_fps[1:])

    @pytest.mark.parametrize("name", sorted(CHUNKINGS))
    def test_to_dataset_arrays_identical(self, tmp_path, big_dataset, name):
        store = build_store(tmp_path / name, big_dataset, CHUNKINGS[name])
        out = store.to_dataset()
        np.testing.assert_array_equal(out.X, big_dataset.X)
        np.testing.assert_array_equal(out.nprocs, big_dataset.nprocs)
        np.testing.assert_array_equal(out.runtime, big_dataset.runtime)
        np.testing.assert_array_equal(
            out.model_runtime, big_dataset.model_runtime
        )
        np.testing.assert_array_equal(out.rep, big_dataset.rep)

    def test_etl_chunk_size_does_not_change_the_store(
        self, tmp_path, big_dataset
    ):
        """The full pipeline (extract -> transform -> sanitize -> append)
        is chunking-invariant too, not just raw appends."""
        fps = set()
        for chunk_rows in (17, 64, 10_000):
            pipe = IngestPipeline(
                tmp_path / f"etl-{chunk_rows}", chunk_rows=chunk_rows
            )
            report = pipe.run(DatasetExtractor(big_dataset))
            fps.add(report.fingerprint)
        assert len(fps) == 1
        assert fps.pop() == dataset_fingerprint(big_dataset)


class TestDownstreamFitEquivalence:
    def test_fits_from_any_chunking_predict_identically(
        self, tmp_path, big_dataset
    ):
        test = make_dataset(n=40, scales=(128,), seed=99)
        preds = []
        for name, sizes in CHUNKINGS.items():
            store = build_store(tmp_path / name, big_dataset, sizes)
            model = TwoLevelModel(small_scales=store.scales, random_state=0)
            model.fit(store.to_dataset())
            preds.append(model.predict(test.X, [128]))
        np.testing.assert_array_equal(preds[0], preds[1])
        np.testing.assert_array_equal(preds[0], preds[2])

    def test_store_fit_identical_to_in_memory_fit(
        self, tmp_path, big_dataset
    ):
        test = make_dataset(n=40, scales=(128,), seed=99)
        store = build_store(
            tmp_path / "s", big_dataset, CHUNKINGS["ragged-shuffled"]
        )
        scales = store.scales
        m_store = TwoLevelModel(small_scales=scales, random_state=0)
        m_store.fit(store.to_dataset())
        m_mem = TwoLevelModel(small_scales=scales, random_state=0)
        m_mem.fit(big_dataset)
        np.testing.assert_array_equal(
            m_store.predict(test.X, [128]),
            m_mem.predict(test.X, [128]),
        )
        # the model's warm-start keys equal the store's per-scale hashes
        assert m_store.scale_data_fingerprints_ == store.scale_fingerprints
