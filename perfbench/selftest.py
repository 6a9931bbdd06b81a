"""Self-test of the benchmark.  Run from the root of a checkout.

``python3 perfbench/selftest.py`` (a few seconds) checks that:

* every gate passes on valid outputs and fails when one value in its
  input is corrupted;
* span self times sum to the root's duration on a nested example;
* the speed probe counts a block's CPU time without its own, and
  samples the machine's speed while the block runs;
* BENCHMARK.json names exactly the workloads and metrics the code
  measures, with the same units, directions and bounds.

``python3 perfbench/selftest.py --seeds 1 2 --seconds 20`` also runs every
workload traced at the first seed twice and at the second seed once
(minutes), and checks that every gate passes, that the counts in
REPEATING_COUNTS repeat exactly at one seed and that some count differs
between the seeds.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import SpeedProbe
from gates import GATES, check
from layers import END_TO_END, PER_LAYER
from run import WORKLOADS
from spans import Tracer, check_self_time_sums

#: Counts that must repeat exactly at one seed.  Other counts may not:
#: on serve-mix, core.packed_pipeline.rows depends on which hot-set cells
#: the LRU cache has evicted, which depends on how the two clients'
#: requests interleave.
REPEATING_COUNTS = (
    "ml.linear.mtl_fits", "ml.linear.mtl_iters", "ml.linear.mtl_capped",
    "ml.tree.tree_fits", "ml.tree.tree_nodes", "store.appends",
    "sim.execution.runs", "serve.predict.requests", "serve.batch.requests",
    "serve.whatif.requests",
)


def _bump(a, index=(0,)):
    """Copy of ``a`` with one value moved by one ulp."""
    a = np.array(a, dtype=np.float64)
    a[index] = np.nextafter(a[index], np.inf)
    return a


def valid_outputs() -> dict[str, dict]:
    pred = np.array([[1.5, 2.5, 4.0], [3.0, 6.0, 12.0]])
    frontier = [{"scale": 512, "core_hours": 1.0, "turnaround": 60.0}]
    return {
        "fit-cold": {"object_pred": pred, "packed_pred": pred.copy(), "degraded": []},
        "serve-mix": {
            "statuses": [("predict", 200), ("batch", 200), ("whatif", 200)],
            "reference": [([1.5, 2.5], np.array([1.5, 2.5]))],
            "hot": [([4.0, 12.0], np.array([4.0, 12.0]))],
            "whatif": [{"frontier": frontier, "recommended": frontier[0]}],
            "server": {"returncode": 0, "stderr": ""},
        },
        "campaign-store": {
            "spent": 900.0, "allocation": 40000.0, "store_error": None,
            "artifact_pred": pred, "model_pred": pred.copy(),
            "held_out_mape": [86.5, 53.0, 57.9, 53.9],
        },
    }


def _set(key, value):
    def corrupt(out):
        out[key] = value(out[key]) if callable(value) else value
    return corrupt


#: (workload, gate) -> corruptions of one value each that must fail it.
CORRUPTIONS = {
    ("fit-cold", "packed_equals_object"): [_set("packed_pred", _bump)],
    ("fit-cold", "finite_positive"): [
        _set("packed_pred", lambda a: np.where(a == a[0, 0], np.nan, a)),
        _set("packed_pred", lambda a: np.where(a == a[0, 0], -a, a))],
    ("fit-cold", "fit_not_degraded"): [_set("degraded", ["pooled_interpolator"])],
    ("serve-mix", "all_responses_200"): [
        _set("statuses", lambda s: [("predict", 500), *s[1:]])],
    ("serve-mix", "served_equals_packed"): [
        _set("reference", lambda r: [(list(_bump(r[0][0])), r[0][1])])],
    ("serve-mix", "hits_equal_misses"): [
        _set("hot", lambda h: [(list(_bump(h[0][0])), h[0][1])])],
    ("serve-mix", "whatif_frontier"): [
        _set("whatif", lambda w: [{**w[0], "frontier": []}]),
        _set("whatif", lambda w: [{**w[0], "recommended": None}])],
    ("serve-mix", "server_exit_clean"): [
        _set("server", {"returncode": 1, "stderr": ""}),
        _set("server", {"returncode": 0, "stderr": "Traceback (most recent call last)"})],
    ("campaign-store", "ledger_within_allocation"): [_set("spent", 40000.5)],
    ("campaign-store", "store_verifies"): [
        _set("store_error", "DatasetFormatError: hash mismatch")],
    ("campaign-store", "artifact_matches_model"): [_set("artifact_pred", _bump)],
    ("campaign-store", "mape_improves"): [
        _set("held_out_mape", lambda m: [*m[:-1], m[0]])],
}


def test_gates() -> list[str]:
    problems = []
    outputs = valid_outputs()
    for workload, gates in GATES.items():
        failures = check(workload, outputs[workload])
        if failures:
            problems.append(f"{workload}: valid outputs fail {failures}")
        for gate in gates:
            corruptions = CORRUPTIONS.get((workload, gate), [])
            if not corruptions:
                problems.append(f"{workload}/{gate}: no corruption tests it")
            for i, corrupt in enumerate(corruptions):
                out = copy.deepcopy(outputs[workload])
                corrupt(out)
                if not any(f.startswith(f"{gate}:") for f in check(workload, out)):
                    problems.append(f"{workload}/{gate}: corruption {i} passed")
    return problems


def test_self_times() -> list[str]:
    tracer = Tracer("bench")
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.002)
        time.sleep(0.001)
    table = tracer.table()
    sums = check_self_time_sums(table)
    total = table.self_s("root") + table.self_s("a") + table.self_s("b")
    problems = []
    if not sums["ok"] or abs(total - table.total_s("root")) > 1e-9:
        problems.append(f"self times do not sum to the root: {sums}")
    if not table.self_s("a") < table.total_s("a"):
        problems.append("a child span's time was not taken off its parent")
    return problems


def test_speed_probe() -> list[str]:
    probe = SpeedProbe()
    with probe.measure() as spent:
        end = probe.own_cpu_s() + 1.0
        while probe.own_cpu_s() < end:
            pass
    problems = []
    if len(probe.samples) < 3:
        problems.append(f"speed probe sampled {len(probe.samples)} times in 1 s")
    if not 1.0 <= spent.cpu_s < 1.01:
        problems.append(f"a 1-s block measured {spent.cpu_s} CPU seconds")
    if not spent.scaled_s > 0:
        problems.append(f"a 1-s block scaled to {spent.scaled_s} seconds")
    return problems


def test_benchmark_json(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if e2e != {k: v[:3] for k, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from layers.END_TO_END")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layer != {k: v[:2] for k, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return problems


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def test_seeds(seeds: list[int], seconds: int) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        first = traced_run(workload, seeds[0], seconds)
        again = traced_run(workload, seeds[0], seconds)
        other = traced_run(workload, seeds[1], seconds)
        moved = {k for k in first if first[k] != other[k]}
        print(json.dumps({"workload": workload, "counts": {
            k: [first[k], other[k]] for k in first if first[k] or other[k]}}))
        unstable = [k for k in REPEATING_COUNTS if first[k] != again[k]]
        if unstable:
            problems.append(f"{workload}: counts differ between two runs at seed "
                            f"{seeds[0]}: {unstable}")
        if not moved:
            problems.append(f"{workload}: no count differs between seeds {seeds}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=None)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    problems = (test_gates() + test_self_times() + test_speed_probe()
                + test_benchmark_json(root))
    if args.seeds and not problems:
        problems += test_seeds(args.seeds, args.seconds)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
