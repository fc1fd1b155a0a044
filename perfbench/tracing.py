"""In-memory span tracer for the benchmark's traced mode.

The tracer patches public functions of the acoustrap modules at the place
where their callers look them up (``acoustrap.control.extract_feature``,
``acoustrap.calibration.pressure_at_points``, ...), so every call made by
the package or by the benchmark records one span: name, start, end, parent
span and scenario id. Spans stay in memory and are written out once, when
the run ends. Nothing inside the package is edited; uninstalling restores
the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from acoustrap import calibration, config, control, field, hologram

LEGAL_REASONS = (
    "detection_starvation",
    "left_fov",
    "target_outside_workspace",
    "trap_geometry",
    "frame_budget_exhausted",
)


def _count_valid(counts, args, kwargs, result):
    counts["vision.extract_feature.valid"] += int(result.valid)


def _count_confirmed(counts, args, kwargs, result):
    counts["prediction.confirm_track.confirmed"] += int(bool(result))


def _count_pairs(counts, args, kwargs, result):
    array = args[0]
    points = len(args[2] if len(args) > 2 else kwargs["points"])
    mask = kwargs.get("active_mask")
    active = array.element_count if mask is None else int(np.count_nonzero(mask))
    counts["field.pressure_at_points.points"] += points
    counts["field.pressure_at_points.pairs"] += points * active


def _count_outcome(counts, args, kwargs, result):
    counts["control.outcome." + (result.failure_reason or "trapped")] += 1
    counts["control.ticks"] += len(result.frames)


def _scenario_seed(args, kwargs):
    return args[0].seed


# (owner, attribute, span name, count hook, scenario id hook). One row per
# lookup site: a function imported into several modules is patched in each.
PATCHES = (
    (config, "resolve_config", "config.resolve_config", None, None),
    (control.TrapWorld, "from_config", "control.TrapWorld.from_config", None, None),
    (control, "run_trap_loop", "control.run_trap_loop", _count_outcome, _scenario_seed),
    (control, "render_frame", "vision.render_frame", None, None),
    (control, "extract_feature", "vision.extract_feature", _count_valid, None),
    (control, "background_image", "vision.background_image", None, None),
    (control, "localize", "calibration.localize", None, None),
    (control, "confirm_track", "prediction.confirm_track", _count_confirmed, None),
    (control, "predict_position", "prediction.predict_position", None, None),
    (control, "make_focus_hologram", "hologram.make_focus_hologram", None, None),
    (control, "make_octahedral_hologram", "hologram.make_octahedral_hologram", None, None),
    (hologram, "make_focus_hologram", "hologram.make_focus_hologram", None, None),
    (hologram, "make_octahedral_hologram", "hologram.make_octahedral_hologram", None, None),
    (field, "pressure_at_points", "field.pressure_at_points", _count_pairs, None),
    (field, "field_slice", "field.field_slice", None, None),
    (field, "gorkov_potential_at_points", "field.gorkov_potential_at_points", None, None),
    (field, "trap_quality", "field.trap_quality", None, None),
    (calibration, "pressure_at_points", "field.pressure_at_points", _count_pairs, None),
    (calibration, "make_focus_hologram", "hologram.make_focus_hologram", None, None),
    (calibration, "project", "vision.project", None, None),
    (calibration, "acquire_reference", "calibration.acquire_reference", None, None),
    (calibration, "calibrate_jacobian", "calibration.calibrate_jacobian", None, None),
)


class Tracer:
    """Records spans of patched calls while installed."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # Each span is [name, start, end, parent index or None, scenario id].
        self.spans: list[list] = []
        self.passes: list[tuple[float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, scenario_of=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if scenario_of is not None:
                scenario = scenario_of(args, kwargs)
            else:
                scenario = spans[parent][4] if parent is not None else None
            span = [name, clock(), None, parent, scenario]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site in ``PATCHES``; restore them on exit."""
        undo = []
        try:
            for owner, attr, name, count, scenario_of in PATCHES:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, count, scenario_of))
                else:
                    replacement = self.wrap(name, original, count, scenario_of)
                setattr(owner, attr, replacement)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_pass(self):
        """Install the patches and record the interval as one traced pass."""
        with self.installed():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.passes.append((start, time.perf_counter()))

    def busy(self, name: str, since: int = 0) -> float:
        return sum(s[2] - s[1] for s in self.spans[since:] if s[0] == name)

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "scenario"],
            "spans": [[n, a - self.t0, b - self.t0, p, sc] for n, a, b, p, sc in self.spans],
            "passes": [[a - self.t0, b - self.t0] for a, b in self.passes],
            "counts": dict(sorted(self.counts.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def span_stats(spans, passes):
    """Per-name call count, durations and self time of spans inside passes.

    Self time is a span's duration minus the durations of its children.
    Also returns the summed duration of root spans inside passes.
    """
    inside = [
        i for i, s in enumerate(spans) if any(a <= s[1] and s[2] <= b for a, b in passes)
    ]
    child_time: defaultdict[int, float] = defaultdict(float)
    for i in inside:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
    durations: defaultdict[str, list] = defaultdict(list)
    self_time: defaultdict[str, float] = defaultdict(float)
    root_time = 0.0
    for i in inside:
        name, start, end, parent, _ = spans[i]
        durations[name].append(end - start)
        self_time[name] += end - start - child_time[i]
        if parent is None:
            root_time += end - start
    return durations, self_time, root_time


def layer_metrics(tracer: Tracer, rounds: int, extra: dict) -> dict:
    """Per-layer metrics of a traced run; additive figures are per round.

    ``extra`` carries figures the benchmark measures outside the spans:
    ``setup_spans`` (span range of the set-up phase), ``pool_overhead_s``,
    ``task_pickle_bytes`` and ``trace_overhead_s``, all per round.
    """
    durations, self_time, root_time = span_stats(tracer.spans, tracer.passes)
    counts = tracer.counts
    per = 1.0 / rounds
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[name + ".calls"] = (len(durations[name]) * per, "count")

    def busy(name):
        out[name + ".busy_s"] = (sum(durations[name]) * per, "s")

    def self_s(name):
        out[name + ".self_s"] = (self_time[name] * per, "s")

    def ms(name, q):
        d = durations[name]
        out[f"{name}.ms_p{q}"] = (float(np.percentile(d, q)) * 1e3 if d else 0.0, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("vision.render_frame", "vision.extract_feature"):
        calls(name)
        busy(name)
        ms(name, 50)
    ms("vision.extract_feature", 90)
    out["vision.extract_feature.valid_ratio"] = (
        ratio(counts["vision.extract_feature.valid"], len(durations["vision.extract_feature"])),
        "fraction",
    )
    calls("vision.background_image")
    busy("vision.background_image")

    calls("calibration.localize")
    busy("calibration.localize")
    calls("calibration.acquire_reference")
    busy("calibration.acquire_reference")
    self_s("calibration.acquire_reference")
    busy("calibration.calibrate_jacobian")

    calls("prediction.confirm_track")
    out["prediction.confirmed_ratio"] = (
        ratio(counts["prediction.confirm_track.confirmed"], len(durations["prediction.confirm_track"])),
        "fraction",
    )
    busy("prediction.predict_position")

    for name in ("hologram.make_octahedral_hologram", "hologram.make_focus_hologram"):
        calls(name)
        ms(name, 50)

    name = "field.pressure_at_points"
    calls(name)
    out[name + ".points"] = (counts[name + ".points"] * per, "count")
    out[name + ".pairs"] = (counts[name + ".pairs"] * per, "count")
    busy(name)
    out[name + ".pairs_per_s"] = (ratio(counts[name + ".pairs"], sum(durations[name])), "1/s")
    busy("field.field_slice")
    busy("field.gorkov_potential_at_points")
    self_s("field.gorkov_potential_at_points")
    busy("field.trap_quality")

    name = "control.run_trap_loop"
    calls(name)
    busy(name)
    self_s(name)
    out["control.ticks_per_scenario"] = (ratio(counts["control.ticks"], len(durations[name])), "ticks")
    for reason in ("trapped",) + LEGAL_REASONS:
        out["control.outcome." + reason] = (counts["control.outcome." + reason] * per, "count")
    out["control.run_batch.pool_overhead_s"] = (extra["pool_overhead_s"], "s")
    out["control.task_pickle_bytes"] = (extra["task_pickle_bytes"], "bytes")

    lo, hi = extra["setup_spans"]
    for name, key in (
        ("config.resolve_config", "config.resolve_config.busy_s"),
        ("control.TrapWorld.from_config", "control.TrapWorld.from_config.busy_s"),
    ):
        out[key] = (sum(s[2] - s[1] for s in tracer.spans[lo:hi] if s[0] == name), "s")

    traced_wall = sum(b - a for a, b in tracer.passes)
    out["trace.overhead_s"] = (extra["trace_overhead_s"], "s")
    out["trace.unattributed_s"] = ((traced_wall - root_time) * per, "s")
    return out
