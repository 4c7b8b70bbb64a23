"""Per-layer spans recorded from outside the program.

A traced sample wraps the public entry points of each layer (the table in
:data:`LAYERS`) with a span recorder and counts work at the same
boundaries.  Nothing under ``src/`` changes: the wrappers are installed in
the traced sample process only, after the workload modules are imported.

A span is ``[layer, start, end, parent]``, kept in memory for the whole
sample.  A layer's self time is the time its spans cover minus the time
their child spans cover, so the self times of all layers plus the root span
add up to the root span's wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Name of the root span: the whole measured part of a sample.  Its self
#: time is driver and bench glue that no layer below claims.
ROOT = "sample"

#: Driver modules whose imported bindings are traced ("as bound in each
#: driver module"), so a call from elsewhere in the program is not counted.
DRIVER_MODULES = ("repro.experiments.plt_campaign", "repro.experiments.h1h2_campaign")

#: Work counts taken at layer boundaries.  They repeat exactly from run to
#: run, so a change that does less work shows as a count.
COUNTERS = (
    "capture.page_loads",
    "httpsim.objects_fetched",
    "capture.frames_rendered",
    "crowd.recruited",
    "core.server.admitted",
    "core.validation.raw_responses",
    "core.validation.clean_responses",
    "faults.checkpoint.bytes_written",
    "faults.checkpoint.bytes_read",
    "warehouse.store.record_bytes",
)


def _count_load(counts, args, result) -> None:
    counts["capture.page_loads"] += 1
    counts["httpsim.objects_fetched"] += len(result.fetch_records)


def _count_frames(counts, args, result) -> None:
    counts["capture.frames_rendered"] += result.frame_count


def _count_recruit(counts, args, result) -> None:
    counts["crowd.recruited"] += result.count


def _count_arrival(counts, args, result) -> None:
    counts["crowd.recruited"] += 1


def _count_admit(counts, args, result) -> None:
    counts["core.server.admitted"] += bool(result)


def _count_filter(counts, args, result) -> None:
    raw, clean = args[1], result[0]
    counts["core.validation.raw_responses"] += len(raw.timeline_responses) + len(raw.ab_responses)
    counts["core.validation.clean_responses"] += (
        len(clean.timeline_responses) + len(clean.ab_responses))


def _count_streaming_filter(counts, args, result) -> None:
    # The streaming runner judges every served video's response inside the
    # runner itself, with no call to FilteringPipeline.run to wrap.
    counts["core.validation.raw_responses"] += result.videos_served
    counts["core.validation.clean_responses"] += result.clean_response_count


def _chunk_bytes(store, index: int) -> int:
    from repro.faults.checkpoint import CHUNK_INDEX_DIGITS

    return (store.root / f"chunk-{index:0{CHUNK_INDEX_DIGITS}d}.pkl").stat().st_size


def _count_chunk_written(counts, args, result) -> None:
    counts["faults.checkpoint.bytes_written"] += _chunk_bytes(args[0], args[1])


def _count_chunk_read(counts, args, result) -> None:
    counts["faults.checkpoint.bytes_read"] += _chunk_bytes(args[0], args[1])


def _count_record(counts, args, result) -> None:
    counts["warehouse.store.record_bytes"] += result.path.stat().st_size


#: layer -> [(module, qualified name, count hook or None)].  A target named
#: ``*`` stands for every function the driver modules imported from that
#: module.  ``Recruiter.recruit_iter`` returns an iterator; each ``next()``
#: on it is a span of its own.
LAYERS: Dict[str, List[tuple]] = {
    "web.corpus": [("repro.web.corpus", "CorpusGenerator.http2_sample", None)],
    "httpsim.engine": [("repro.httpsim.engine", "FetchEngine.run", None)],
    "browser.browser": [("repro.browser.browser", "Browser.load", _count_load)],
    "browser.renderer": [("repro.browser.renderer", "Renderer.render", None)],
    "browser.devtools": [("repro.browser.devtools", "DevToolsSession.build_har", None)],
    "capture.webpeg": [
        ("repro.capture.webpeg", "Webpeg.capture", None),
        ("repro.experiments.h1h2_campaign", "capture_protocol_pair", None),
    ],
    "capture.frames": [("repro.capture.webpeg", "frames_from_timeline", _count_frames)],
    "metrics.plt": [(module, "metrics_from_video", None) for module in DRIVER_MODULES],
    "core.experiment": [
        ("repro.experiments.h1h2_campaign", "build_ab_pairs", None),
        ("repro.core.experiment", "ABExperiment.make_control_pair", None),
    ],
    "crowd.recruitment": [
        ("repro.crowd.recruitment", "Recruiter.recruit", _count_recruit),
        ("repro.crowd.recruitment", "Recruiter.recruit_iter", _count_arrival),
    ],
    "core.server": [
        ("repro.core.server", "EyeorgServer.admit", _count_admit),
        ("repro.core.server", "EyeorgServer.assign_tasks", None),
        ("repro.core.server", "EyeorgServer.admit_and_assign", None),
        ("repro.core.server", "TaskAssigner.assign", None),
    ],
    "core.session": [
        ("repro.core.session", "ParticipantSession.run_timeline", None),
        ("repro.core.session", "ParticipantSession.run_ab", None),
        ("repro.core.campaign", "run_cohort_kernel", None),
    ],
    "core.validation": [("repro.core.validation", "FilteringPipeline.run", _count_filter)],
    "core.campaign": [
        ("repro.core.campaign", "CampaignRunner.run_timeline", None),
        ("repro.core.campaign", "CampaignRunner.run_ab", None),
        ("repro.core.campaign", "CampaignRunner.run_timeline_streaming", _count_streaming_filter),
    ],
    "core.analysis": [("repro.core.analysis", "*", None)],
    "faults.checkpoint": [
        ("repro.faults.checkpoint", "CheckpointStore.save_chunk", _count_chunk_written),
        ("repro.faults.checkpoint", "CheckpointStore.load_chunk", _count_chunk_read),
    ],
    "warehouse.store": [
        ("repro.warehouse.store", "ResultsWarehouse.ingest", _count_record),
        ("repro.warehouse.store", "StreamingIngest.add_participant", None),
        ("repro.warehouse.store", "StreamingIngest.add_timeline_response", None),
        ("repro.warehouse.store", "StreamingIngest.add_ab_response", None),
        ("repro.warehouse.store", "StreamingIngest.finalize", _count_record),
        ("repro.warehouse.store", "WarehouseRecord.load", None),
    ],
    "warehouse.stats": [("repro.warehouse.stats", "record_stats", None)],
}

_ITERATOR_TARGETS = {"Recruiter.recruit_iter"}


def _expand(module_name: str, qualname: str):
    """Yield ``(owner, attribute)`` pairs a target names."""
    if qualname != "*":
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, attribute
        return
    for driver_name in DRIVER_MODULES:
        driver = importlib.import_module(driver_name)
        for attribute, value in sorted(vars(driver).items()):
            if inspect.isfunction(value) and value.__module__ == module_name:
                yield driver, attribute


class Tracer:
    """Span recorder for one traced sample."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: List[int] = []

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (used for the root)."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, layer: str, function: Callable, hook: Optional[Callable]) -> Callable:
        open_span, close_span, counts = self._open, self._close, self.counts

        def traced(*args, **kwargs):
            span = open_span(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(span)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _wrap_iterator(self, layer: str, function: Callable, hook: Callable) -> Callable:
        call = self._wrap(layer, function, None)

        def each_next(iterator, args):
            while True:
                span = self._open(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                hook(self.counts, args, item)
                yield item

        def traced(*args, **kwargs):
            return each_next(call(*args, **kwargs), args)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS` (raises if one has vanished)."""
        for layer, targets in LAYERS.items():
            for module_name, qualname, hook in targets:
                for owner, attribute in _expand(module_name, qualname):
                    original = vars(owner)[attribute]
                    if qualname in _ITERATOR_TARGETS:
                        wrapper = self._wrap_iterator(layer, original, hook)
                    else:
                        wrapper = self._wrap(layer, original, hook)
                    setattr(owner, attribute, wrapper)

    # -- results -----------------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Self time and span count per layer, root included."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {name: {"self_s": 0.0, "calls": 0} for name in (ROOT, *LAYERS)}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = table[name]
            row["self_s"] += end - start - child_time[index]
            row["calls"] += 1
        return table

    def chrome_events(self) -> List[Dict[str, object]]:
        """The spans as Chrome trace-event ``X`` events (microseconds, pid 0)."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": index, "parent": parent}}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
