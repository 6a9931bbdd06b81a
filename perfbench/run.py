"""Benchmark of the two-level model's three user-facing paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-cold --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for why it was chosen):

* ``fit-cold`` (fit_cold.py): cold fits of the quickstart history, then
  queries against the packed model;
* ``serve-mix`` (serve_mix.py): ``repro serve`` as a child process under a
  closed loop of two clients with a /predict, /batch, /whatif mix;
* ``campaign-store`` (campaign_store.py): a store-backed planner campaign
  with a model registry.

The seed makes every input; the program receives only those inputs.  The
amount of work is fixed, so counts repeat exactly at one seed: fit-cold
and campaign-store do the same work at any ``--seconds``, serve-mix
sends 400 requests per second of it.  Every workload checks its outputs
(gates.py) and prints, as its last stdout line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric of layers.py, measured with
tracing off, its times in CPU seconds at a reference machine speed
(common.SpeedProbe); with ``--trace 1`` every per-layer metric, from spans
recorded around each layer's public call.  Earlier stdout lines carry
the run's metadata and details; the same record is written to
``.perfbench/results/`` in the checkout.  A failed gate exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("fit-cold", "serve-mix", "campaign-store")
#: Every BLAS/OpenMP pool, here and in the server child, runs one thread:
#: the workloads run at most two threads of their own on a two-core
#: machine, and a second BLAS thread per process only adds spin-wait
#: noise to these small matrices.
BLAS_ENV = {name: "1" for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    # BLAS pools read their thread count once, when numpy loads.
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(root / "src"))

    import campaign_store
    import fit_cold
    import serve_mix
    from common import metadata, write_json
    from layers import END_TO_END, PER_LAYER, instrument, per_layer_values
    from spans import SpanTable, Tracer, check_self_time_sums

    module = {"fit-cold": fit_cold, "serve-mix": serve_mix,
              "campaign-store": campaign_store}[args.workload]
    trace = bool(args.trace)
    out_dir = root / ".perfbench"
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    meta = metadata(root, args.workload, args.seed, args.seconds, trace,
                    module.sizes(args.seconds))

    tracer = None
    try:
        if trace:
            tracer = Tracer("bench")
            instrument(tracer)
            with tracer.span(f"perfbench.{args.workload}"):
                result = module.run(args.seed, args.seconds, workdir, tracer)
        else:
            result = module.run(args.seed, args.seconds, workdir, None)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"metadata": meta, "end_to_end": result.metrics,
              "unbounded": result.layer_extra, "details": result.details,
              "gate_failures": result.gate_failures}
    if trace:
        table = SpanTable.merge(tracer.export(), *result.span_dumps)
        sums = check_self_time_sums(table)
        if not sums["ok"]:
            result.gates([f"self_time_sums: self times do not sum to root "
                          f"durations: {sums}"])
        extra = {**result.layer_extra,
                 "trace.unattributed_share": sums["bench"]["unattributed_share"]}
        metrics = per_layer_values(table, extra)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        record["self_time_check"] = sums
        record["per_layer"] = metrics
        untraced = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            base = {**base["end_to_end"], **base["unbounded"]}
            record["tracing_overhead"] = {
                name: value - base[name]
                for name, value in {**result.metrics, **result.layer_extra}.items()
                if name in base
            }
    else:
        metrics = result.metrics
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")

    write_json(out_dir / "results"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({k: v for k, v in record.items() if k != "metadata"}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
