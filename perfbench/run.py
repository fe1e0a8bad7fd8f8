"""Run a fewner benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-b0 --seed 3 --seconds 40 --trace 0

Workloads: grid-b0, greedy-remote, predict-cli, or ``all`` for the three in
turn in this one process.  A run repeats passes of the workload, each
from a cold cache, for ``--seconds`` (at least three passes), and checks
every pass's outputs.

``--trace 0`` reports the end-to-end metrics: the evaluations of all passes
over their total timed seconds, and medians over the passes or set-ups.
Times are read at a fixed host speed: a reference loop timed before each
pass rescales that pass's CPU seconds (see ``perfbench/speed.py``).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans, plus the tracing overhead; the spans of the last
traced pass are written to ``.perfbench_run/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted counts the requests the
pipeline issued plus the output checks made; failed counts the checks that
did not hold, and a pass that raised fails its check "pass i completed".
Under ``all``, only the first workload reports peak_rss_mb: the process's
peak is the largest so far, so a later workload would read an earlier one's.  Exits with 2, printing no
result, when the fewner sources are not in ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("grid-b0", "greedy-remote", "predict-cli")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "model_calls": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=3, help="input seed (default 3)")
    parser.add_argument("--seconds", type=float, default=40.0, help="seconds to measure")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _checks(name: str, seed: int, passes: list) -> list[tuple[str, bool]]:
    """Every check of a run: each pass's own, repeat identity, pinned values."""
    from perfbench.workloads import PINNED, PINNED_SEED

    out: list[tuple[str, bool]] = []
    reference = next((p.outputs for p in passes if p.error is None), None)
    for i, p in enumerate(passes):
        if p.error is not None:
            out.append((f"pass {i} completed ({p.error})", False))
            continue
        out.extend((f"pass {i}: {label}", ok) for label, ok in p.checks.items())
        out.append((f"pass {i} outputs equal pass 0", p.outputs == reference))
    if seed == PINNED_SEED and reference is not None:
        for key, expected in PINNED[name].items():
            if key in reference:
                got = reference[key]
                out.append((f"{key} is {expected!r} at seed {seed} (got {got!r})", got == expected))
    return out


def _end_to_end(runs: list, peak_rss: bool) -> dict[str, float]:
    """Metrics of (reference seconds, pass) pairs, each pass timed right
    after its reference loop."""
    from perfbench.speed import at_reference_speed

    done = [(ref, p) for ref, p in runs if p.error is None]
    if not done:
        return {}
    timed = sum(at_reference_speed(p.wall_s, p.cpu_s, ref) for ref, p in done)
    setups = (
        at_reference_speed(wall, cpu, ref)
        for ref, p in done
        for wall, cpu in zip(p.setup_s, p.setup_cpu_s)
    )
    metrics = {
        # All passes' evaluations over their total time: less noisy than the
        # median of per-pass rates, since pass times vary without outliers.
        "evals_per_s": sum(p.evaluations for _, p in done) / timed,
        "setup_s": statistics.median(setups),
    }
    if all("model_calls" in p.counts for _, p in done):
        metrics["model_calls"] = statistics.median(p.counts["model_calls"] for _, p in done)
    if peak_rss:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _per_layer(untraced: list, traced: list) -> dict[str, float]:
    from perfbench.tracing import available_metrics

    done = [(p, figures) for p, figures in traced if p.error is None]
    plain = [p for p in untraced if p.error is None]
    if not done or not plain:
        return {}
    keep = available_metrics(done[0][0].counts["missing_hooks"])
    metrics = {
        name: statistics.median(figures[name] for _, figures in done)
        for name in keep
        if all(name in figures for _, figures in done)
    }

    def total(p):
        return sum(p.setup_s) + p.wall_s

    metrics["trace.overhead_ms"] = 1000.0 * (
        statistics.median(total(p) for p, _ in done) - statistics.median(total(p) for p in plain)
    )
    return metrics


def _repeat(step, seconds: float, minimum: int) -> list:
    """Results of step(), called at least minimum times and then for as
    long as another call, at the median duration so far, ends within
    seconds of the start."""
    clock = time.perf_counter
    started, durations, out = clock(), [], []
    while len(out) < minimum or clock() - started + statistics.median(durations) <= seconds:
        begun = clock()
        out.append(step())
        durations.append(clock() - begun)
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, peak_rss: bool = True
) -> dict:
    from perfbench.speed import reference_s
    from perfbench.tracing import LAYER_METRICS, Tracer, layer_metrics, write_spans
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    if not trace:
        def measured():
            reference = reference_s()
            return reference, workload.run_pass(setups=SETUP_REPEATS)

        runs = _repeat(measured, seconds, MIN_PASSES)
        references = [ref for ref, _ in runs]
        untraced = [p for _, p in runs]
        traced = []
        metrics = _end_to_end(runs, peak_rss)
        units = END_TO_END_UNITS
    else:
        last = {}

        def pair():
            plain, tracer = workload.run_pass(), Tracer()
            p = workload.run_pass(tracer)
            last["spans"] = tracer.spans()  # only the last pass's spans are kept
            return plain, (p, layer_metrics(last["spans"], tracer.tally, p.counts))

        pairs = _repeat(pair, seconds, MIN_TRACED_PASSES)
        untraced = [plain for plain, _ in pairs]
        traced = [figures for _, figures in pairs]
        references = []
        metrics = _per_layer(untraced, traced)
        units = {metric: unit for metric, (unit, _) in LAYER_METRICS.items()}
        spans_path = RUN_DIR / f"spans-{name}-seed{seed}.jsonl"
        write_spans(last["spans"], spans_path)
    passes = untraced + [p for p, _ in traced]
    checks = _checks(name, seed, passes)
    requests = sum(p.counts.get("requests", 0) for p in passes)
    failed = sum(1 for _, ok in checks if not ok)

    print(f"{name} seed={seed} passes={len(passes)} trace={int(trace)}")
    for i, p in enumerate(passes):
        setups = " ".join(f"{s:.4f}" for s in p.setup_s)
        probe = f", reference loop {references[i]:.4f} s" if i < len(references) else ""
        print(f"  pass {i}: set-up {setups} s, timed {p.wall_s:.4f} s (CPU {p.cpu_s:.4f} s){probe}")
    for label, ok in checks:
        if not ok:
            print(f"  FAILED CHECK {label}")
    missing = sorted({m for p in passes for m in p.counts.get("missing_hooks", ())})
    for target in missing:
        print(f"warning: hook target {target} not found; its metrics are left out", file=sys.stderr)
    print(f"  {'failed_share':28s} {failed / max(1, requests + len(checks)):14.6f} ratio")
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value:14.4f} {units[metric]}")
    if trace:
        print(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": requests + len(checks),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fewner" / "__init__.py").is_file():
        print(f"error: no fewner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {
            name: run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir, peak_rss=i == 0
            )
            for i, name in enumerate(names)
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name} | result))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
