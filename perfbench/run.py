"""The repository benchmark: four seeded workloads, checked against scipy.

One run::

    python3 perfbench/run.py --workload serve_knn --seed 1 --seconds 20 --trace 0

measures one workload for ``--seconds`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0`` (observability off), or the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it give
the machine fingerprint, the inputs (size and seed) and the sample
counts behind each percentile.  Every run checks sampled answers
against ``scipy.spatial.cKDTree``; a mismatch fails the run (exit 1).

Every metric of every workload, traced and untraced, with the tracing
overhead per end-to-end metric, in one table::

    python3 perfbench/run.py --all --seed 1 --seconds 20

``--smoke`` shrinks every input so a run takes seconds (the
benchmark's own tests use it).  Run from the root of a checkout; the
program is imported from its ``src`` directory, and generated inputs
are cached under ``.bench_cache``.

End-to-end metrics (every workload reports all of them):

``setup_s``
    median over repeated set-ups of the time from start to the first
    answer (tree, index or server build, worker spawn, shm publish).
``throughput_per_s``
    odometry: frames per second through all four steps; serve_*:
    requests per second answered correctly within the 50 ms latency
    limit, at the workload's fixed offered rate; blocked_map: query
    rows per second.
``peak_rss_mb``
    peak resident memory of this process plus its largest child.

Latency per unit of work -- a frame (odometry), a request timed from
its scheduled send time (serve_*), a 2048-row batch (blocked_map) --
is printed with every run as p50/p90/p99 with its sample counts, and
reported by the traced run as ``latency.*``, but it is not gated: on a
2-core VM it tracks the host's CPU steal (serving p50 doubled from 9
to 20 ms as steal rose from 5% to 24%), so no bound a gate can hold
separates code from host.  Serving percentiles are medians over
2-second windows of each window's percentile (nearest rank).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("odometry", "serve_knn", "serve_stream", "blocked_map")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; print a table")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required (or --all)")
    return args


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _stop_resource_tracker() -> None:
    """Stop and wait for the helper process ``multiprocessing`` starts on
    first shared-memory use, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(args) -> int:
    _import_program()
    import importlib

    import layers
    from common import cache_dir, fingerprint
    from spans import NullRecorder, SpanRecorder

    import repro.obs as obs

    module = importlib.import_module(args.workload)
    if args.trace:
        recorder = SpanRecorder()
        registry = obs.enable(trace=True)
    else:
        recorder = NullRecorder()
        registry = obs.get_registry()
    started = time.perf_counter()
    try:
        outcome = module.run(args, recorder, registry)
    finally:
        obs.disable()
        _stop_resource_tracker()
    if args.trace:
        trace_dir = cache_dir() / "traces"
        trace_dir.mkdir(exist_ok=True)
        recorder.write(trace_dir / f"{args.workload}-s{args.seed}.json")
        outcome.layers["error_rate"] = outcome.failed / max(outcome.attempted, 1)
        for name, (value, _) in outcome.metrics.items():
            outcome.layers[f"traced.{name}"] = value
        for name, value in outcome.info["latency_ms"].items():
            outcome.layers[f"latency.{name}_ms"] = value
        metrics = layers.complete(outcome.layers)
    else:
        missing = {name for name, _ in END_TO_END} - set(outcome.metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")
        metrics = {name: outcome.metrics[name] for name, _ in END_TO_END}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "run_wall_s": time.perf_counter() - started,
        "fingerprint": fingerprint(),
        "oracle": {"checked_rows": outcome.oracle_checked,
                   "mismatched_rows": outcome.oracle_mismatches},
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        **outcome.info,
    }))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    correct = outcome.correct
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    _import_program()
    from common import fingerprint

    results: dict[tuple[str, int], dict] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            results[(workload, trace)] = {
                "info": json.loads(lines[0]), "result": json.loads(lines[-1]),
            }

    print(json.dumps({"fingerprint": fingerprint(), "seed": args.seed,
                      "seconds": args.seconds}))
    for (workload, trace), res in results.items():
        info, result = res["info"], res["result"]
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}) "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(f"   inputs:  {json.dumps(info.get('inputs'))}")
        print(f"   samples: {json.dumps(info.get('samples'))}")
        print(f"   latency: {json.dumps(info.get('latency_ms'))}")
        for name, entry in result["metrics"].items():
            print(f"   {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print("\n== tracing overhead (traced / untraced - 1)")
    for workload in WORKLOADS:
        plain = results.get((workload, 0))
        traced = results.get((workload, 1))
        if plain is None or traced is None:
            continue
        pairs = [(name, plain["result"]["metrics"][name]["value"],
                  traced["result"]["metrics"][f"traced.{name}"]["value"])
                 for name, _ in END_TO_END]
        pairs.append(("latency_p50_ms", plain["info"]["latency_ms"]["p50"],
                      traced["result"]["metrics"]["latency.p50_ms"]["value"]))
        for name, base, other in pairs:
            print(f"   {workload:14s} {name:20s} {other / base - 1:+.3f}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
