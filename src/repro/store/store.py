"""The columnar history store: manifest + shard directory.

Layout::

    store/
        manifest.json           # schema version, row counts, fingerprints
        shards/
            shard-00000/        # one append each (see repro.store.shards)
            shard-00001/
            ...

The manifest is the store's single source of truth: which shards exist
(orphan directories from a crashed append are ignored), how many rows
each holds, each shard's content fingerprint, the sanitize provenance of
the chunk it came from, and two *chunking-invariant* content hashes —
the whole-store ``dataset_fingerprint`` and one fingerprint per scale.
Chunking-invariant means: ingesting the same records through any chunk
sizes produces byte-identical fingerprints, because the hash streams
the store column-major in row order (see
:class:`~repro.data.io.FingerprintStream`).  A scale's fingerprint
equals the ``scale_data_fingerprints_`` entry a
:class:`~repro.core.TwoLevelModel` records when fitted on the same rows
(warm-start refits compare those model-side hashes, not the store's).

A non-deferred :meth:`HistoryStore.append` reads no shard but the one
it writes: the instance keeps every hashed shard's fingerprint columns
in memory (8·(n_params+4) bytes per row, for its lifetime) and hashes
the whole store and each touched scale from them in one pass.  Shards
committed before the instance opened the store are read once, by its
first such append.  Bulk ingest appends with
``defer_fingerprints=True`` and calls
:meth:`~HistoryStore.refresh_fingerprints` once, which streams the
shards from disk and keeps nothing; :meth:`~HistoryStore.verify` and
:meth:`~HistoryStore.fsck` hash the bytes on disk too.

Manifest updates are atomic and durable (fsynced temp file +
``os.replace`` + parent-dir fsync via :mod:`repro.store.atomic`) and
shard writes land before the manifest references them, so a reader
always sees a consistent store and a crash loses at most the append in
flight.  :meth:`HistoryStore.fsck` repairs the cases atomicity alone
cannot: shards damaged after commit (bit rot, truncation) are
classified and quarantined, orphaned temp/shard directories from a
crash are swept, and the manifest is rewritten to cover exactly the
surviving rows.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from ..data.dataset import ExecutionDataset
from ..data.io import FINGERPRINT_COLUMNS, FingerprintStream, save_dataset
from ..errors import ConfigurationError, DataValidationError, DatasetFormatError
from ..log import get_logger
from . import atomic
from .schema import (
    COLUMN_NAMES,
    OPTIONAL_COLUMNS,
    STORE_FORMAT,
    STORE_FORMAT_VERSION,
    column_dtype,
)
from .shards import ShardReader, write_shard

__all__ = [
    "HistoryStore",
    "FsckReport",
    "MANIFEST_NAME",
    "QUARANTINE_DIR",
    "DEFAULT_CHUNK_ROWS",
]

logger = get_logger("store.store")

MANIFEST_NAME = "manifest.json"
SHARDS_DIR = "shards"
QUARANTINE_DIR = "quarantine"

#: Row-chunk size used when streaming shards (hashing, export, chunked
#: reads).  Bounds peak memory at roughly ``chunk * row_width`` bytes.
DEFAULT_CHUNK_ROWS = 65536


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}"


def _row_chunks(col: np.ndarray, rows: np.ndarray | None) -> Iterator[np.ndarray]:
    """``col`` (or its ``rows``, in order) in slices of at most
    :data:`DEFAULT_CHUNK_ROWS` rows."""
    step = DEFAULT_CHUNK_ROWS
    if rows is None:
        for i in range(0, col.shape[0], step):
            yield col[i : i + step]
    else:
        for i in range(0, len(rows), step):
            yield col[rows[i : i + step]]


@dataclass
class FsckReport:
    """What :meth:`HistoryStore.fsck` found (and, with ``repair=True``,
    fixed).  ``damaged`` maps shard name -> classification, one of
    ``missing-shard``, ``missing-column``, ``unreadable-column``,
    ``row-mismatch``, or ``hash-mismatch``; orphans are directories no
    manifest entry references."""

    root: str
    shards_checked: int = 0
    rows_before: int = 0
    rows_retained: int = 0
    damaged: dict[str, str] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    orphans_removed: list[str] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.damaged and not self.orphans_removed

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "shards_checked": self.shards_checked,
            "rows_before": self.rows_before,
            "rows_retained": self.rows_retained,
            "damaged": dict(self.damaged),
            "quarantined": list(self.quarantined),
            "orphans_removed": list(self.orphans_removed),
            "repaired": self.repaired,
            "clean": self.clean,
        }

    def summary(self) -> str:
        if self.clean:
            return (
                f"fsck: clean ({self.shards_checked} shard(s), "
                f"{self.rows_retained} rows)"
            )
        parts = [
            f"fsck: {len(self.damaged)} damaged shard(s), "
            f"{len(self.orphans_removed)} orphan(s)"
        ]
        for name, kind in sorted(self.damaged.items()):
            parts.append(f"  {name}: {kind}")
        parts.append(
            f"  rows: {self.rows_before} -> {self.rows_retained} "
            f"({'repaired' if self.repaired else 'NOT repaired'})"
        )
        return "\n".join(parts)


class HistoryStore:
    """A trace-scale execution history on disk (see module docstring).

    Create one with :meth:`create`, reopen with :meth:`open`; both are
    cheap (only the manifest is read — shard columns are memory-mapped
    lazily).
    """

    def __init__(self, root: Path, manifest: dict[str, Any]) -> None:
        self.root = Path(root)
        self._manifest = manifest
        # In-memory FINGERPRINT_COLUMNS of the listed shards, keyed by
        # each shard's manifest content fingerprint (so a shard name
        # that fsck frees and an append reuses can never hit a stale
        # entry); filled and pruned by non-deferred appends.
        self._kept: dict[str, dict[str, np.ndarray]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        app_name: str,
        param_names: Sequence[str],
    ) -> "HistoryStore":
        """Initialize an empty store at ``root`` (refuses an existing one)."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise ConfigurationError(
                f"{root} already holds a history store; open() it instead."
            )
        root.mkdir(parents=True, exist_ok=True)
        (root / SHARDS_DIR).mkdir(exist_ok=True)
        manifest = {
            "format": STORE_FORMAT,
            "format_version": STORE_FORMAT_VERSION,
            "app_name": str(app_name),
            "param_names": [str(n) for n in param_names],
            "created_unix": time.time(),
            "n_rows": 0,
            "scales": [],
            "dataset_fingerprint": None,
            "scale_fingerprints": {},
            "fingerprints_stale": False,
            "shards": [],
        }
        store = cls(root, manifest)
        store._write_manifest()
        logger.info("created history store at %s (app=%s)", root, app_name)
        return store

    @classmethod
    def open(cls, root: str | Path) -> "HistoryStore":
        """Open an existing store, validating its manifest."""
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise DatasetFormatError(
                f"{root} is not a history store (no {MANIFEST_NAME})."
            )
        try:
            manifest = json.loads(atomic.read_text(path, op="store.manifest"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetFormatError(
                f"{path}: manifest is not readable JSON: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != STORE_FORMAT:
            raise DatasetFormatError(
                f"{path}: not a history-store manifest "
                f"(format={manifest.get('format') if isinstance(manifest, dict) else None!r})."
            )
        try:
            version = int(manifest["format_version"])
        except (KeyError, TypeError, ValueError):
            raise DatasetFormatError(
                f"{path}: manifest has no integer format_version."
            ) from None
        if version > STORE_FORMAT_VERSION:
            raise DatasetFormatError(
                f"{path}: store format version {version} is newer than "
                f"this build reads (<= {STORE_FORMAT_VERSION})."
            )
        missing = sorted(
            {"app_name", "param_names", "n_rows", "shards"} - set(manifest)
        )
        if missing:
            raise DatasetFormatError(
                f"{path}: manifest is missing keys {missing}."
            )
        if manifest.get("fingerprints_stale"):
            logger.warning(
                "%s: fingerprints are stale (interrupted ingest?); run "
                "refresh_fingerprints() to recompute them", root
            )
        return cls(root, manifest)

    @staticmethod
    def is_store(root: str | Path) -> bool:
        """True when ``root`` looks like a history store directory."""
        path = Path(root) / MANIFEST_NAME
        if not path.is_file():
            return False
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False
        return isinstance(manifest, dict) and manifest.get("format") == STORE_FORMAT

    # -- manifest accessors ------------------------------------------------

    @property
    def app_name(self) -> str:
        return str(self._manifest["app_name"])

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(self._manifest["param_names"])

    @property
    def n_rows(self) -> int:
        return int(self._manifest["n_rows"])

    @property
    def n_shards(self) -> int:
        return len(self._manifest["shards"])

    @property
    def scales(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self._manifest["scales"])

    @property
    def fingerprint(self) -> str | None:
        """Whole-store content hash — equals
        ``dataset_fingerprint(store.to_dataset())`` and is invariant to
        how the rows were chunked into shards.  ``None`` while stale."""
        if self._manifest.get("fingerprints_stale"):
            return None
        return self._manifest["dataset_fingerprint"]

    @property
    def scale_fingerprints(self) -> dict[int, str]:
        """Per-scale content hashes, each equal to
        ``dataset_fingerprint`` of that scale's rows."""
        if self._manifest.get("fingerprints_stale"):
            return {}
        return {
            int(s): str(v)
            for s, v in self._manifest["scale_fingerprints"].items()
        }

    @property
    def shard_infos(self) -> list[dict[str, Any]]:
        """Per-shard manifest entries (name, rows, scales, fingerprint,
        source, sanitize provenance)."""
        return [dict(e) for e in self._manifest["shards"]]

    def sources(self) -> list[str]:
        """Distinct non-null shard sources, in append order."""
        out: list[str] = []
        for entry in self._manifest["shards"]:
            src = entry.get("source")
            if src is not None and src not in out:
                out.append(src)
        return out

    def has_source(self, source: str) -> bool:
        """True when some shard was appended under this source tag —
        the exactly-once guard incremental producers (campaign rounds)
        use to make re-appends after a crash idempotent."""
        return any(
            entry.get("source") == source
            for entry in self._manifest["shards"]
        )

    def __len__(self) -> int:
        return self.n_rows

    # -- append ------------------------------------------------------------

    def append(
        self,
        dataset: ExecutionDataset,
        source: str | None = None,
        sanitize: dict[str, Any] | None = None,
        defer_fingerprints: bool = False,
    ) -> dict[str, Any] | None:
        """Append one chunk of history as a new shard.

        Returns the new shard's manifest entry (``None`` for an empty
        chunk).  ``sanitize`` carries the chunk's sanitize-report dict
        into the manifest as provenance.  ``defer_fingerprints=True``
        skips the store-level fingerprint recompute (the manifest is
        marked stale) and keeps no columns; bulk ingesters use it and
        call :meth:`refresh_fingerprints` once at the end.  Otherwise
        the recompute hashes kept columns and reads no earlier shard
        (see the module docstring).
        """
        if dataset.app_name != self.app_name:
            raise DataValidationError(
                f"Cannot append {dataset.app_name!r} rows to a "
                f"{self.app_name!r} store."
            )
        if dataset.param_names != self.param_names:
            raise DataValidationError(
                f"Param names {list(dataset.param_names)} do not match "
                f"the store schema {list(self.param_names)}."
            )
        if len(dataset) == 0:
            return None
        name = _shard_name(self.n_shards)
        shard_dir = self.root / SHARDS_DIR / name
        write_shard(shard_dir, dataset)

        from ..data.io import dataset_fingerprint

        entry = {
            "name": name,
            "rows": len(dataset),
            "scales": [int(s) for s in dataset.scales],
            "fingerprint": dataset_fingerprint(dataset),
            "source": source,
            "sanitize": dict(sanitize) if sanitize is not None else None,
            "created_unix": time.time(),
        }
        self._manifest["shards"].append(entry)
        self._manifest["n_rows"] = self.n_rows + len(dataset)
        scales = sorted(
            set(self.scales) | {int(s) for s in dataset.scales}
        )
        self._manifest["scales"] = scales
        if defer_fingerprints:
            self._manifest["fingerprints_stale"] = True
        else:
            self._kept[entry["fingerprint"]] = {
                col: np.array(getattr(dataset, col), dtype=dtype, order="C")
                for col, dtype in FINGERPRINT_COLUMNS
            }
            self._refresh_fingerprints(
                touched=[int(s) for s in dataset.scales], keep=True
            )
        self._write_manifest()
        logger.debug(
            "appended %s: %d rows (source=%s, store now %d rows)",
            name, len(dataset), source, self.n_rows,
        )
        return dict(entry)

    def refresh_fingerprints(self) -> str:
        """Recompute the store and per-scale fingerprints from the
        shards on disk in one streamed pass, keeping no columns (clears
        a stale marker), and return the store hash."""
        self._refresh_fingerprints(touched=None)
        self._write_manifest()
        fp = self._manifest["dataset_fingerprint"]
        assert fp is not None
        return fp

    def _refresh_fingerprints(
        self, touched: Sequence[int] | None, keep: bool = False
    ) -> None:
        """Recompute the whole-store hash, plus the per-scale hashes of
        ``touched`` scales (all scales when ``None`` or when stale).

        ``keep=True`` (non-deferred appends) hashes the kept columns,
        reading only shards the instance has not kept yet; otherwise
        every shard is streamed from disk and nothing is kept.
        """
        stale = bool(self._manifest.get("fingerprints_stale"))
        if touched is None or stale:
            targets = list(self.scales)
            per_scale: dict[str, str] = {}
        else:
            targets = sorted(set(int(s) for s in touched))
            per_scale = dict(self._manifest.get("scale_fingerprints", {}))
        whole, by_scale = self._fingerprint_pass(targets, keep)
        self._manifest["dataset_fingerprint"] = whole
        per_scale.update((str(s), fp) for s, fp in by_scale.items())
        self._manifest["scale_fingerprints"] = per_scale
        self._manifest["fingerprints_stale"] = False

    def _fingerprint_pass(
        self, scales: Sequence[int], keep: bool
    ) -> tuple[str, dict[int, str]]:
        """The whole-store hash and the hash of each of ``scales``,
        chunking-invariant, from one column-major pass over the listed
        shards: each shard's rows per scale are taken once from its
        ``nprocs`` column, and every column feeds all the streams."""
        entries = self._manifest["shards"]
        if keep:
            kept: dict[str, dict[str, np.ndarray]] = {}
            for e in entries:
                fp = e["fingerprint"]
                if fp not in kept:
                    kept[fp] = (
                        self._kept[fp] if fp in self._kept else self._read_kept(e)
                    )
            self._kept = kept  # drops shards the manifest no longer lists
            shards = [kept[e["fingerprint"]] for e in entries]
        else:
            shards = [
                {name: reader.column(name) for name, _ in FINGERPRINT_COLUMNS}
                for reader in self._readers()
            ]
        rows = [
            {s: np.flatnonzero(cols["nprocs"] == s) for s in scales}
            for cols in shards
        ]
        whole = FingerprintStream(self.app_name, self.param_names)
        streams = {
            s: FingerprintStream(self.app_name, self.param_names) for s in scales
        }
        for name, _ in FINGERPRINT_COLUMNS:
            whole.update_column(name, (
                chunk for cols in shards
                for chunk in _row_chunks(cols[name], None)
            ))
            for s, stream in streams.items():
                stream.update_column(name, (
                    chunk for cols, idx in zip(shards, rows)
                    for chunk in _row_chunks(cols[name], idx[s])
                ))
        return whole.fingerprint(), {
            s: stream.fingerprint() for s, stream in streams.items()
        }

    def _read_kept(self, entry: dict[str, Any]) -> dict[str, np.ndarray]:
        """One shard's fingerprint columns, read from disk into memory
        (shards committed before this instance opened the store)."""
        reader = ShardReader(self.root / SHARDS_DIR / entry["name"])
        return {
            name: np.array(reader.column(name))
            for name, _ in FINGERPRINT_COLUMNS
        }

    # -- reading -----------------------------------------------------------

    def _readers(self) -> list[ShardReader]:
        return [
            ShardReader(self.root / SHARDS_DIR / entry["name"])
            for entry in self._manifest["shards"]
        ]

    def iter_chunks(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        scales: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
    ) -> Iterator[dict[str, np.ndarray]]:
        """Stream the (scale-sliced) store as column dicts of at most
        ``chunk_rows`` rows each, in row order, without materializing
        the whole history."""
        use = self._check_columns(columns)
        if chunk_rows < 1:
            raise ConfigurationError("chunk_rows must be >= 1.")
        for reader in self._readers():
            if scales is None:
                idx = None
                n = reader.n_rows
            else:
                idx = np.nonzero(reader.scale_mask(scales))[0]
                n = len(idx)
            for i in range(0, n, chunk_rows):
                sel = (
                    slice(i, i + chunk_rows)
                    if idx is None
                    else idx[i : i + chunk_rows]
                )
                chunk = {
                    name: np.asarray(
                        reader.column(name)[sel], dtype=column_dtype(name)
                    )
                    for name in use
                }
                if chunk[use[0]].shape[0]:
                    yield chunk

    def _check_columns(self, columns: Sequence[str] | None) -> tuple[str, ...]:
        if columns is None:
            return COLUMN_NAMES
        unknown = sorted(set(columns) - set(COLUMN_NAMES))
        if unknown:
            raise ConfigurationError(
                f"Unknown store columns {unknown}; schema columns are "
                f"{list(COLUMN_NAMES)}."
            )
        if not columns:
            raise ConfigurationError("columns must be non-empty.")
        return tuple(columns)

    def load_columns(
        self,
        columns: Sequence[str],
        scales: Sequence[int] | None = None,
    ) -> dict[str, np.ndarray]:
        """Materialize only the named columns (optionally scale-sliced)
        — each is allocated once and filled shard by shard."""
        use = self._check_columns(columns)
        readers = self._readers()
        if scales is None:
            masks: list[np.ndarray | None] = [None] * len(readers)
            counts = [r.n_rows for r in readers]
        else:
            masks = [r.scale_mask(scales) for r in readers]
            counts = [int(m.sum()) for m in masks]  # type: ignore[union-attr]
        total = int(sum(counts))
        n_params = len(self.param_names)
        out: dict[str, np.ndarray] = {}
        for name in use:
            shape = (total, n_params) if name == "X" else (total,)
            out[name] = np.empty(shape, dtype=column_dtype(name))
        cursor = 0
        for reader, mask, count in zip(readers, masks, counts):
            if count == 0:
                continue
            for name in use:
                col = reader.column(name)
                out[name][cursor : cursor + count] = (
                    col if mask is None else col[mask]
                )
            cursor += count
        return out

    def to_dataset(
        self,
        scales: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
    ) -> ExecutionDataset | dict[str, np.ndarray]:
        """Materialize the slice a fit needs.

        With ``columns=None`` (default) returns an
        :class:`~repro.data.ExecutionDataset` of every row (optionally
        restricted to ``scales``), bit-identical to the in-memory
        concatenation of the appended chunks.  With a ``columns``
        subset, returns just those columns as a dict of arrays — the
        other column files are never read.
        """
        if columns is not None:
            return self.load_columns(columns, scales=scales)
        cols = self.load_columns(COLUMN_NAMES, scales=scales)
        if cols["nprocs"].shape[0] == 0:
            raise DataValidationError(
                f"Store slice is empty (scales={scales}); nothing to "
                "materialize."
            )
        return ExecutionDataset(
            app_name=self.app_name,
            param_names=self.param_names,
            **cols,
        )

    # -- integrity ---------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Recompute every shard fingerprint and the store hash; raise
        :class:`~repro.errors.DatasetFormatError` on any mismatch.

        Returns a summary dict (shards checked, rows hashed) on success.
        """
        from ..data.io import dataset_fingerprint

        rows = 0
        for entry in self._manifest["shards"]:
            reader = ShardReader(self.root / SHARDS_DIR / entry["name"])
            if reader.n_rows != int(entry["rows"]):
                raise DatasetFormatError(
                    f"{entry['name']}: manifest says {entry['rows']} rows "
                    f"but the shard holds {reader.n_rows}."
                )
            shard_ds = ExecutionDataset(
                app_name=self.app_name,
                param_names=self.param_names,
                **{name: np.asarray(reader.column(name)) for name in COLUMN_NAMES},
            )
            actual = dataset_fingerprint(shard_ds)
            if actual != entry["fingerprint"]:
                raise DatasetFormatError(
                    f"{entry['name']}: content hash {actual} does not "
                    f"match the manifest ({entry['fingerprint']}) — the "
                    "shard was modified or corrupted."
                )
            rows += reader.n_rows
        if rows != self.n_rows:
            raise DatasetFormatError(
                f"Manifest row count {self.n_rows} != shard total {rows}."
            )
        if not self._manifest.get("fingerprints_stale"):
            actual = self._fingerprint_pass((), keep=False)[0] if rows else None
            if actual != self._manifest["dataset_fingerprint"]:
                raise DatasetFormatError(
                    f"Store content hash {actual} does not match the "
                    f"manifest ({self._manifest['dataset_fingerprint']})."
                )
        return {
            "shards": self.n_shards,
            "rows": rows,
            "fingerprint": self._manifest["dataset_fingerprint"],
            "stale": bool(self._manifest.get("fingerprints_stale")),
        }

    def _classify_shard(self, shard_dir: Path, entry: dict[str, Any]) -> str | None:
        """One shard's damage class, or ``None`` when intact."""
        from ..data.io import dataset_fingerprint

        if not shard_dir.is_dir():
            return "missing-shard"
        cols: dict[str, np.ndarray] = {}
        absent: list[str] = []
        for name in COLUMN_NAMES:
            path = shard_dir / f"{name}.npy"
            if not path.is_file():
                # Optional columns are legitimately absent from shards
                # written before they existed — not damage.
                if name in OPTIONAL_COLUMNS:
                    absent.append(name)
                    continue
                return "missing-column"
            try:
                cols[name] = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError):
                return "unreadable-column"
            if cols[name].dtype != column_dtype(name):
                return "unreadable-column"
        rows = int(cols["nprocs"].shape[0])
        if rows != int(entry["rows"]) or any(
            int(c.shape[0]) != rows for c in cols.values()
        ):
            return "row-mismatch"
        for name in absent:
            cols[name] = np.zeros(rows, dtype=column_dtype(name))
        try:
            shard_ds = ExecutionDataset(
                app_name=self.app_name,
                param_names=self.param_names,
                **{n: np.asarray(c) for n, c in cols.items()},
            )
            actual = dataset_fingerprint(shard_ds)
        except Exception:
            # column files load but the values no longer form a valid
            # dataset (e.g. a bit flip produced NaN) — content damage
            return "hash-mismatch"
        if actual != entry["fingerprint"]:
            return "hash-mismatch"
        return None

    def fsck(self, repair: bool = True) -> FsckReport:
        """Classify damage per shard, quarantine what's broken, and
        repair the manifest so the store reopens with the surviving
        rows.

        Unlike :meth:`verify` (detect-only: first mismatch raises),
        ``fsck`` checks *every* shard and — with ``repair=True`` —
        moves damaged shards into ``quarantine/`` (never deletes data),
        sweeps orphaned temp directories from crashed appends,
        quarantines orphaned shard directories no manifest entry
        references, rewrites the manifest to cover exactly the intact
        shards, and recomputes the fingerprints.  With
        ``repair=False`` it only reports.
        """
        report = FsckReport(root=str(self.root), rows_before=self.n_rows)
        shards_root = self.root / SHARDS_DIR

        survivors: list[dict[str, Any]] = []
        for entry in self._manifest["shards"]:
            report.shards_checked += 1
            kind = self._classify_shard(shards_root / entry["name"], entry)
            if kind is None:
                survivors.append(entry)
                report.rows_retained += int(entry["rows"])
            else:
                report.damaged[entry["name"]] = kind

        known = {e["name"] for e in self._manifest["shards"]}
        orphan_tmps: list[Path] = []
        orphan_shards: list[Path] = []
        if shards_root.is_dir():
            for child in sorted(shards_root.iterdir()):
                if child.name in known or child.name in report.damaged:
                    continue
                if child.name.startswith(".tmp-"):
                    orphan_tmps.append(child)
                    report.damaged[child.name] = "orphaned-tmp"
                elif child.is_dir():
                    orphan_shards.append(child)
                    report.damaged[child.name] = "orphaned-shard"
        tmp_manifest = self.root / f".{MANIFEST_NAME}.tmp"
        if tmp_manifest.exists():
            orphan_tmps.append(tmp_manifest)
            report.damaged[tmp_manifest.name] = "orphaned-tmp"

        if not repair or report.clean:
            return report

        for name, kind in sorted(report.damaged.items()):
            if kind in ("missing-shard", "orphaned-tmp"):
                continue
            self._quarantine(shards_root / name, report)
        for child in orphan_tmps:
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink(missing_ok=True)
            report.orphans_removed.append(child.name)

        self._manifest["shards"] = survivors
        self._manifest["n_rows"] = sum(int(e["rows"]) for e in survivors)
        self._manifest["scales"] = sorted(
            {int(s) for e in survivors for s in e["scales"]}
        )
        if survivors:
            self._refresh_fingerprints(touched=None)
        else:
            self._manifest["dataset_fingerprint"] = None
            self._manifest["scale_fingerprints"] = {}
            self._manifest["fingerprints_stale"] = False
        self._write_manifest()
        report.repaired = True
        logger.warning(
            "%s: fsck quarantined %d shard(s), removed %d orphan(s); "
            "%d of %d rows retained",
            self.root, len(report.quarantined), len(report.orphans_removed),
            report.rows_retained, report.rows_before,
        )
        return report

    def _quarantine(self, src: Path, report: FsckReport) -> None:
        if not src.exists():
            return
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        dst = qdir / src.name
        suffix = 0
        while dst.exists():
            suffix += 1
            dst = qdir / f"{src.name}.{suffix}"
        src.rename(dst)
        atomic.fsync_dir(qdir)
        atomic.fsync_dir(src.parent)
        report.quarantined.append(dst.name)

    # -- export ------------------------------------------------------------

    def export_json(
        self, path: str | Path, scales: Sequence[int] | None = None
    ) -> Path:
        """Export a (scale-sliced) copy in the legacy JSON/NPZ dataset
        format of :mod:`repro.data.io` (chosen by suffix)."""
        path = Path(path)
        dataset = self.to_dataset(scales=scales)
        assert isinstance(dataset, ExecutionDataset)
        save_dataset(dataset, path)
        return path

    def export_parquet(
        self,
        path: str | Path,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> Path:
        """Stream the store into one Parquet file (optional feature:
        needs ``pyarrow``, which is never required elsewhere).

        Parameter columns are exported one per parameter name, so the
        file is directly queryable by external tools.
        """
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ConfigurationError(
                "Parquet export needs the optional dependency pyarrow "
                "(pip install pyarrow)."
            ) from exc
        path = Path(path)
        fields = [pa.field(n, pa.float64()) for n in self.param_names]
        fields += [
            pa.field("nprocs", pa.int64()),
            pa.field("runtime", pa.float64()),
            pa.field("model_runtime", pa.float64()),
            pa.field("rep", pa.int64()),
            pa.field("wait_seconds", pa.float64()),
        ]
        schema = pa.schema(fields)
        with pq.ParquetWriter(path, schema) as writer:
            for chunk in self.iter_chunks(chunk_rows=chunk_rows):
                arrays = [
                    pa.array(chunk["X"][:, j])
                    for j in range(len(self.param_names))
                ]
                arrays += [
                    pa.array(chunk["nprocs"]),
                    pa.array(chunk["runtime"]),
                    pa.array(chunk["model_runtime"]),
                    pa.array(chunk["rep"]),
                    pa.array(chunk["wait_seconds"]),
                ]
                writer.write_table(pa.Table.from_arrays(arrays, schema=schema))
        return path

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        """Human-readable manifest summary."""
        fp = self.fingerprint
        lines = [
            f"history store : {self.root}",
            f"application   : {self.app_name}",
            f"params        : {', '.join(self.param_names)}",
            f"rows          : {self.n_rows} across {self.n_shards} shard(s)",
            f"scales        : {list(self.scales)}",
            f"fingerprint   : {fp if fp else 'STALE (refresh needed)'}",
        ]
        for entry in self._manifest["shards"]:
            san = entry.get("sanitize")
            extra = ""
            if san:
                dropped = sum((san.get("dropped") or {}).values())
                imputed = sum((san.get("imputed") or {}).values())
                if dropped or imputed:
                    extra = f"  [sanitize: -{dropped} rows, ~{imputed} imputed]"
            src = f"  <- {entry['source']}" if entry.get("source") else ""
            lines.append(
                f"  {entry['name']}: {entry['rows']:>8d} rows, "
                f"scales {entry['scales']}{src}{extra}"
            )
        return "\n".join(lines)

    # -- manifest persistence ----------------------------------------------

    def _write_manifest(self) -> None:
        atomic.atomic_replace(
            self.root / MANIFEST_NAME,
            json.dumps(self._manifest, sort_keys=True, indent=1),
            op="store.manifest",
        )
