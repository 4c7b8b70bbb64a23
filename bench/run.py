"""Run the repo benchmark: the paper's campaigns, one fresh process per sample.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-out OUT] [--json OUT]

A run of one workload takes pairs of samples.  Pair ``k`` runs the campaign
with seed ``N + k`` twice, and both samples must produce the same output
digest.  The number of pairs is ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``) divided by the workload's nominal sample time, so a run
covers a fixed set of seeds and its medians average over that many corpora.
Every sample is a fresh interpreter started by ``bench/sample.py``, one at a
time, with its own scratch directory and ``TMPDIR`` that are deleted when it
ends, so no cache, warehouse or checkpoint outlives a sample.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` (or ``--trace-out``) one sample of
each pair is traced, alternating which runs first, and the run reports the
per-layer metrics and the tracing overhead; ``--trace-out`` also writes the
spans of each workload's first traced sample as Chrome trace-event JSON.
``--json`` writes every sample and statistic, for ``bench/compare.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every sample ran and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from workloads import DEFAULT_SEED, TINY_SCALE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
WORK_DIR = BENCH_DIR / ".work"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Warehouse record ids this commit produced, per workload and campaign seed.
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: A run takes at least this many pairs, whatever ``--seconds`` says.
MIN_PAIRS = 2

#: A sample that has not finished by then is killed and counts as failed.
SAMPLE_TIMEOUT_S = 170

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")


def describe(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles`` gives them), max and n."""
    if len(values) < 2:
        only = values[0]
        return {"median": only, "q1": only, "q3": only, "max": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


def pair_count(workload: str, seconds: float) -> int:
    """Pairs a run of ``seconds`` takes, from the nominal sample time."""
    return max(MIN_PAIRS, round(seconds / (2 * WORKLOADS[workload]["sample_s"])))


def _sample_env(tmpdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    # Bytecode is cached in the benchmark's own work directory, so set-up
    # time measures imports, not compilation, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK_DIR / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        TMPDIR=str(tmpdir),
    )
    return env


def load_json(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def run_sample(workload: str, seed: int, traced: bool = False, tiny: bool = False,
               export_spans: bool = False,
               expect_record_ids: Optional[List[str]] = None) -> Dict[str, object]:
    """Run one sample of ``workload`` at campaign seed ``seed`` and collect it.

    ``tiny`` runs the smoke-test scale instead of the workload's own.  The
    result always has ``seed``, ``traced``, ``ok`` and ``error``; a
    sample that ran also has ``setup_s``, ``run_s``, ``peak_rss_mb``,
    ``digest``, ``record_ids`` and ``checks``, and, when traced, ``layers``
    and ``counts``.
    """
    definition = WORKLOADS[workload]
    failure = {"seed": seed, "traced": traced, "ok": False}
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    sample_dir = Path(tempfile.mkdtemp(prefix="sample-", dir=WORK_DIR))
    try:
        (sample_dir / "tmp").mkdir()
        spec = {
            "driver": definition["driver"],
            "scheme": definition["scheme"],
            "scale": TINY_SCALE[definition["driver"]] if tiny else definition["scale"],
            "tiny": tiny,
            "seed": seed,
            "expect_record_ids": expect_record_ids,
            "traced": traced,
            "export_spans": export_spans,
            "work": str(sample_dir),
            "out": str(sample_dir / "result.json"),
        }
        spec_path = sample_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "sample.py"), str(spec_path)],
                cwd=sample_dir, env=_sample_env(sample_dir / "tmp"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return dict(failure, error=f"seed {seed}: timed out after {SAMPLE_TIMEOUT_S} s")
        out = Path(spec["out"])
        if not out.exists():
            lines = (proc.stderr or "").strip().splitlines()
            reason = lines[-1] if lines else f"exited {proc.returncode}"
            return dict(failure, error=f"seed {seed}: {reason}")
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    errors = result.pop("errors")
    result.update(
        seed=seed,
        traced=traced,
        setup_s=result.pop("t_ready") - started,
        ok=proc.returncode == 0 and not errors,
        error="; ".join(errors) or (None if proc.returncode == 0
                                    else f"seed {seed}: exited {proc.returncode}"),
    )
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: Dict[str, List[str]],
            export_spans: bool = False) -> List[Dict[str, object]]:
    """All samples of one run; stops at the first failed sample.

    ``reference`` maps campaign seeds (as strings) to the record ids the
    workload must produce at them.  ``export_spans`` keeps the spans of the
    first traced sample, the one at ``seed``.
    """
    samples: List[Dict[str, object]] = []
    for pair in range(pair_count(workload, seconds)):
        kinds = ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False, False)
        for traced in kinds:
            samples.append(run_sample(workload, seed + pair, traced=traced,
                                      export_spans=export_spans and traced and pair == 0,
                                      expect_record_ids=reference.get(str(seed + pair))))
            if not samples[-1]["ok"]:
                return samples
        first, second = samples[-2:]
        if first["digest"] != second["digest"]:
            second["ok"] = False
            second["error"] = (f"seed {second['seed']}: digest {second['digest'][:12]} "
                               f"!= {first['digest'][:12]} of the same seed")
            return samples
    return samples


def layer_values(sample: Dict[str, object]) -> Dict[str, float]:
    """One traced sample's per-layer metrics, in ``BENCHMARK.json``'s names."""
    values: Dict[str, float] = {}
    for layer, row in sample["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.share"] = row["self_s"] / sample["run_s"]
        values[f"{layer}.calls"] = row["calls"]
    counts = sample["counts"]
    values.update(counts)
    values["core.server.admit_ratio"] = counts["core.server.admitted"] / counts["crowd.recruited"]
    values["core.validation.clean_ratio"] = (
        counts["core.validation.clean_responses"] / counts["core.validation.raw_responses"])
    return values


def trace_summary(samples: List[Dict[str, object]]) -> Dict[str, object]:
    """Medians of the per-layer metrics, attribution and tracing overhead.

    The overhead is the median over pairs of traced ``run_s`` / untraced
    ``run_s`` - 1: both samples of a pair ran the same seed, so the ratio
    leaves out how much work each seed's corpus takes.
    """
    traced = [s for s in samples if s["traced"]]
    plain = {s["seed"]: s for s in samples if not s["traced"]}
    per_sample = [layer_values(s) for s in traced]
    metrics = {name: statistics.median(v[name] for v in per_sample) for name in per_sample[0]}
    metrics["trace.overhead"] = statistics.median(
        s["run_s"] / plain[s["seed"]]["run_s"] for s in traced) - 1.0
    attributed = [sum(row["self_s"] for row in s["layers"].values()) / s["run_s"]
                  for s in traced]
    return {"layers": list(traced[0]["layers"]), "metrics": metrics,
            "attributed": [min(attributed), max(attributed)]}


def summarize(workload: str, seed: int, samples: List[Dict[str, object]],
              trace: bool) -> Dict[str, object]:
    """Everything a run found out about one workload."""
    failed = sum(1 for s in samples if not s["ok"])
    ran = [s for s in samples if s["ok"]]
    plain = [s for s in ran if not s["traced"]]
    by_seed = {s["seed"]: s for s in ran}
    checks = {"golden": 0, "reference": 0,
              "pairs": sum(1 for n in Counter(s["seed"] for s in ran).values() if n == 2)}
    for sample in ran:
        for check in sample["checks"]:
            checks[check] += 1
    report = {
        "workload": workload,
        "seed": seed,
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "errors": [s["error"] for s in samples if s["error"]],
        "checks": checks,
        # One digest for the run: every seed's output digest, in seed order.
        "digest": hashlib.sha256(json.dumps(
            [[s["seed"], s["digest"]] for s in by_seed.values()]).encode()).hexdigest(),
        "record_ids": {str(s["seed"]): s["record_ids"] for s in by_seed.values()},
        "metrics": {name: describe([s[name] for s in plain]) for name in END_TO_END}
        if plain else {},
        "samples": [{key: s.get(key) for key in ("seed", "traced", "ok", "setup_s", "run_s",
                                                 "peak_rss_mb")}
                    for s in samples],
    }
    if trace and not failed:
        report["trace"] = trace_summary(samples)
    return report


def print_report(report: Dict[str, object], units: Dict[str, str]) -> None:
    seeds = sorted(int(seed) for seed in report["record_ids"])
    span = f"{seeds[0]}-{seeds[-1]}" if seeds else "-"
    print(f"workload {report['workload']}  seeds {span}  samples {report['attempted']} "
          f"({report['failed']} failed)  digest {report['digest'][:16]}")
    checks = report["checks"]
    print(f"  checked: same digest for both samples of each of {checks['pairs']} seeds, "
          f"{checks['golden']} samples against the golden, "
          f"{checks['reference']} against reference record ids")
    if seeds:
        print(f"  record ids at seed {seeds[0]}: {report['record_ids'][str(seeds[0])]}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    if report["metrics"]:
        print(f"  {'metric':<14}{'median':>10}{'q1':>10}{'q3':>10}{'max':>10}{'n':>5}  unit")
        for name, row in report["metrics"].items():
            print(f"  {name:<14}{row['median']:>10.4f}{row['q1']:>10.4f}{row['q3']:>10.4f}"
                  f"{row['max']:>10.4f}{row['n']:>5}  {units[name]}")
    print(f"  {'failed_frac':<14}{report['failed_frac']:>10.4f}"
          f"  ({report['failed']}/{report['attempted']})  ratio")
    trace = report.get("trace")
    if trace is None:
        return
    metrics = trace["metrics"]
    print(f"  {'layer (medians)':<20}{'self_s':>10}{'share':>8}{'calls':>9}")
    for layer in sorted(trace["layers"], key=lambda name: -metrics[f"{name}.self_s"]):
        print(f"  {layer:<20}{metrics[f'{layer}.self_s']:>10.4f}"
              f"{metrics[f'{layer}.share']:>8.1%}{metrics[f'{layer}.calls']:>9.0f}")
    for name, value in metrics.items():
        if not name.endswith((".self_s", ".share", ".calls")):
            print(f"  {name:<36}{value:>16.4f}")
    low, high = trace["attributed"]
    print(f"  layer self times / run_s: {low:.4f} to {high:.4f}")


def result_line(spec: Dict[str, object], reports: List[Dict[str, object]],
                trace: bool) -> Dict[str, object]:
    """The final JSON line: the metrics ``BENCHMARK.json`` lists for the mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for report in reports:
        if report["failed"]:
            continue
        values = (report["trace"]["metrics"] if trace
                  else {name: row["median"] for name, row in report["metrics"].items()})
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for metric in wanted:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]],
                                                "unit": metric["unit"]}
    failed = sum(report["failed"] for report in reports)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(SPEC_PATH)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the first pair of samples")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="nominal seconds to sample each workload for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace one sample of each pair, report per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="write each workload's first traced sample here as Chrome trace JSON "
                             "(implies --trace 1)")
    parser.add_argument("--json", type=Path, help="write every sample and statistic here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace) or args.trace_out is not None
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    reference = load_json(REFERENCE_PATH)
    reports, events = [], []
    for workload in args.workload or list(WORKLOADS):
        samples = measure(workload, args.seed, args.seconds, trace,
                          reference.get(workload, {}),
                          export_spans=args.trace_out is not None)
        report = summarize(workload, args.seed, samples, trace)
        print_report(report, units)
        reports.append(report)
        exported = next((s for s in samples if "events" in s), None)
        if exported is not None:
            # One Chrome "process" per workload.
            pid = len(reports)
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"{workload} seed {exported['seed']}"}})
            events.extend(dict(event, pid=pid) for event in exported["events"])
    if args.json is not None:
        args.json.write_text(json.dumps({
            "format": "repro-bench-v1",
            "host": {"platform": platform.platform(), "machine": platform.machine(),
                     "cpus": os.cpu_count(), "python": platform.python_version()},
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": trace,
            "workloads": {report["workload"]: report for report in reports},
        }, indent=2) + "\n", encoding="utf-8")
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
    if all(report["failed"] == report["attempted"] for report in reports):
        print("error: every sample failed", file=sys.stderr)
        return 1
    print(json.dumps(result_line(spec, reports, trace)))
    return 0 if all(report["failed"] == 0 for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
