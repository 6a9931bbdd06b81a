"""Output gates: checks that the program's answers are correct.

Each workload collects its outputs into a dict and runs its gates over
it; a gate returns ``None`` when it passes and a message when it fails.
``selftest.py`` corrupts one value per gate and checks the gate fails.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

Gate = Callable[[dict[str, Any]], "str | None"]


def _equal(a: Any, b: Any) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a, b))


# -- fit-cold ---------------------------------------------------------------

def packed_equals_object(out: dict) -> str | None:
    if not _equal(out["packed_pred"], out["object_pred"]):
        return "packed predictions differ from the object path"
    return None


def finite_positive(out: dict) -> str | None:
    pred = np.asarray(out["packed_pred"], dtype=np.float64)
    if pred.size == 0 or not np.all(np.isfinite(pred)) or not np.all(pred > 0):
        return "predictions are not all finite and positive"
    return None


def fit_not_degraded(out: dict) -> str | None:
    if out["degraded"]:
        return f"fit report is degraded: {out['degraded']}"
    return None


# -- serve-mix --------------------------------------------------------------

def all_responses_200(out: dict) -> str | None:
    bad = [(route, status) for route, status in out["statuses"] if status != 200]
    if bad:
        return f"{len(bad)} non-200 responses, first {bad[0]}"
    return None


def served_equals_packed(out: dict) -> str | None:
    for i, (served, local) in enumerate(out["reference"]):
        if not _equal(served, local):
            return f"served values differ from in-process PackedPipeline.predict (reference {i})"
    return None


def hits_equal_misses(out: dict) -> str | None:
    for i, (hit, miss) in enumerate(out["hot"]):
        if not _equal(hit, miss):
            return f"cached answer differs from the uncached one (hot request {i})"
    return None


def whatif_frontier(out: dict) -> str | None:
    for i, answer in enumerate(out["whatif"]):
        if not answer.get("frontier") or not answer.get("recommended"):
            return f"what-if answer {i} lacks a frontier or a recommendation"
    return None


def server_exit_clean(out: dict) -> str | None:
    server = out["server"]
    if server["returncode"] != 0:
        return f"server child exited with {server['returncode']}"
    if server["stderr"].strip():
        return f"server child wrote to stderr: {server['stderr'].strip()[:200]}"
    return None


# -- campaign-store ---------------------------------------------------------

def ledger_within_allocation(out: dict) -> str | None:
    if not out["spent"] <= out["allocation"]:
        return f"ledger spent {out['spent']} > allocation {out['allocation']}"
    return None


def store_verifies(out: dict) -> str | None:
    if out["store_error"] is not None:
        return f"store.verify() failed: {out['store_error']}"
    return None


def artifact_matches_model(out: dict) -> str | None:
    if not _equal(out["artifact_pred"], out["model_pred"]):
        return "the last registered artifact predicts differently from the final model"
    return None


def mape_improves(out: dict) -> str | None:
    mapes = out["held_out_mape"]
    if len(mapes) < 2 or not mapes[-1] < mapes[0]:
        return f"the last registered model's held-out MAPE is not below the first's: {mapes}"
    return None


GATES: dict[str, dict[str, Gate]] = {
    "fit-cold": {
        "packed_equals_object": packed_equals_object,
        "finite_positive": finite_positive,
        "fit_not_degraded": fit_not_degraded,
    },
    "serve-mix": {
        "all_responses_200": all_responses_200,
        "served_equals_packed": served_equals_packed,
        "hits_equal_misses": hits_equal_misses,
        "whatif_frontier": whatif_frontier,
        "server_exit_clean": server_exit_clean,
    },
    "campaign-store": {
        "ledger_within_allocation": ledger_within_allocation,
        "store_verifies": store_verifies,
        "artifact_matches_model": artifact_matches_model,
        "mape_improves": mape_improves,
    },
}


def check(workload: str, out: dict[str, Any]) -> list[str]:
    """Run every gate of ``workload``; return the failure messages."""
    failures = []
    for name, gate in GATES[workload].items():
        message = gate(out)
        if message is not None:
            failures.append(f"{name}: {message}")
    return failures
