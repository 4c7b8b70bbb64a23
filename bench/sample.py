"""One benchmark sample: a fresh interpreter runs one workload once.

Spawned by ``bench/run.py`` as ``python bench/sample.py SPEC.json``; it is
not meant to be run by hand.  The spec names the workload, the campaign
seed, the scale, the sample's scratch directory, the record ids to expect,
whether to trace, and where to write the result.  The sample imports the
workload modules, stamps the time (the end of set-up), runs the campaign,
verifies the outputs, and writes a JSON result.  It exits 1 when a check
fails.
"""

import hashlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import repro.experiments.h1h2_campaign as h1h2_campaign
import repro.experiments.plt_campaign as plt_campaign
import repro.warehouse.stats as warehouse_stats
from repro.errors import CampaignInterrupted
from repro.goldens import GOLDEN_SEED, diff_snapshots, load_golden
from repro.warehouse import ResultsWarehouse

from tracer import ROOT, Tracer
from workloads import PROFILE

IMPORTS_DONE = time.monotonic()


def _reprs(mapping):
    return {key: repr(value) for key, value in sorted(mapping.items())}


def _plt_outputs(result, filter_summary):
    return {
        "table1": result.campaign.table1_row,
        "filter_summary": filter_summary.summary_row(),
        "videos_served": result.campaign.videos_served,
        "uplt_by_site": _reprs(result.uplt_by_site),
        "metric_correlations": _reprs(result.comparison.correlations),
    }


def _driver_args(spec, work):
    scale = spec["scale"]
    return dict(
        sites=scale["sites"], participants=scale["participants"],
        loads_per_site=scale["loads"], seed=spec["seed"], network_profile=PROFILE,
        rng_scheme=spec["scheme"], warehouse=ResultsWarehouse(work / "warehouse"),
        triage=False,
    )


def run_plt(spec, work):
    kwargs = _driver_args(spec, work)
    result = plt_campaign.run_plt_campaign(**kwargs)
    record_ids = [record.record_id for record in kwargs["warehouse"].records()]
    return _plt_outputs(result, result.campaign.filter_report), record_ids


def run_h1h2(spec, work):
    result = h1h2_campaign.run_h1h2_campaign(**_driver_args(spec, work))
    # Read the record back through a fresh handle, as a later analysis would.
    records = ResultsWarehouse(work / "warehouse").query(kind="h1h2")
    agreement = warehouse_stats.record_stats(records[0]).agreement
    campaign = result.campaign
    outputs = {
        "table1": campaign.table1_row,
        "filter_summary": campaign.filter_report.summary_row(),
        "videos_served": campaign.videos_served,
        "scores_by_site": _reprs(result.scores_by_site),
        "no_difference_by_site": _reprs(result.no_difference_by_site),
        "agreement": None if agreement is None else {
            "items": agreement.items,
            "raters_total": agreement.raters_total,
            "fleiss_kappa": repr(agreement.fleiss_kappa),
        },
    }
    return outputs, [record.record_id for record in records]


def run_stream(spec, work):
    scale = spec["scale"]
    kwargs = dict(_driver_args(spec, work), chunk_size=scale["chunk_size"],
                  checkpoint_dir=work / "checkpoint")
    try:
        plt_campaign.run_plt_campaign_streaming(
            stop_after_chunks=scale["stop_after_chunks"], **kwargs)
    except CampaignInterrupted:
        pass
    else:
        raise RuntimeError("the streaming campaign finished before its stop point")
    result = plt_campaign.run_plt_campaign_streaming(**kwargs)
    campaign = result.campaign
    outputs = _plt_outputs(result, campaign.filter_summary)
    outputs["chunks"] = [campaign.chunks_total, campaign.chunks_executed]
    return outputs, [campaign.warehouse_record.record_id]


RUNNERS = {"plt": run_plt, "h1h2": run_h1h2, "stream": run_stream}


def verify(spec, outputs, record_ids):
    """Check the outputs against every pinned value that applies.

    Returns ``(checks made, failures)``.  The runner adds the third check:
    two samples of the same seed must produce the same digest.
    """
    checks, errors = [], []
    if spec["driver"] == "plt" and spec["seed"] == GOLDEN_SEED and not spec["tiny"]:
        checks.append("golden")
        fresh = dict(outputs, rng_scheme=spec["scheme"], seed=spec["seed"],
                     scale={"name": "full", **spec["scale"]})
        errors.extend(f"seed {spec['seed']}: golden {difference}" for difference
                      in diff_snapshots(load_golden(spec["scheme"], "full"), fresh))
    expected = spec["expect_record_ids"]
    if expected is not None:
        checks.append("reference")
        if record_ids != expected:
            errors.append(f"seed {spec['seed']}: record ids {record_ids} != reference {expected}")
    return checks, errors


def run_and_verify(spec):
    """The measured part of a sample: campaign, checks and digest."""
    start = time.perf_counter()
    outputs, record_ids = RUNNERS[spec["driver"]](spec, Path(spec["work"]))
    checks, errors = verify(spec, outputs, record_ids)
    digest = hashlib.sha256(json.dumps(
        {"outputs": outputs, "record_ids": record_ids}, sort_keys=True).encode()).hexdigest()
    return {"run_s": time.perf_counter() - start, "digest": digest,
            "record_ids": record_ids, "checks": checks, "errors": errors}


def peak_rss_mb() -> float:
    """This process's peak resident set size since it started, in MiB.

    ``ru_maxrss`` would not do: on Linux a spawned process inherits the
    spawning process's peak in it, so the runner's own memory would leak
    into every sample.  ``VmHWM`` belongs to this process's address space.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    with tracer.span(ROOT) if tracer is not None else nullcontext():
        result = run_and_verify(spec)
    result["t_ready"] = IMPORTS_DONE
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["counts"] = tracer.counts
        if spec["export_spans"]:
            result["events"] = tracer.chrome_events()
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
