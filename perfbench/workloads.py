"""The three benchmark workloads, driven through acoustrap's public API.

Every call into the package goes through a module attribute
(``control.run_trap_loop``, ``field.field_slice``, ...) so that the traced
mode can patch it. A workload is set up once and then runs rounds; a round
is the workload's fixed unit of work, and its outputs are checked after it
is timed.

- ``trap_jitter``: closed loop, one scenario after another (jobs=1), clean
  sensor, 1 px feature jitter and 5% per-camera dropout, positive contrast
  only. Vision dominates host time and the field kernel is never called.
- ``trap_sensor_noise``: the same kind of batch with sensor noise of 5 gray
  levels and half the particles negative contrast, run through
  ``run_batch`` on a process pool. It is the only workload on the pool and
  focus-synthesis paths, and noise leaves less for a windowed extraction
  to skip.
- ``field_design``: design and calibration tasks on the monopole field
  model. The field kernel dominates and no frame is rendered.
"""

from __future__ import annotations

import json
import math
import pickle
import time
import traceback
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from acoustrap import calibration, config, control, field, hologram
from acoustrap.core import Contrast, ParticleState, Vec3, wavelength
from acoustrap.field import FieldSlice, PlaneSpec
from acoustrap.hologram import FocusTrap, OctahedralTrap
import reference
from tracing import LEGAL_REASONS

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "baselines" / "trap_quality.json"

# Per-scenario perturbations of both trap workloads.
PIXEL_JITTER_PX = 1.0
DROPOUT_PROB = 0.05


@dataclass(frozen=True)
class Sizes:
    trap_batch: int
    sensor_batch: int
    slice_half_mm: float
    gorkov_points_per_axis: int
    lattice: tuple[int, int, int]


FULL = Sizes(trap_batch=25, sensor_batch=40, slice_half_mm=2.0, gorkov_points_per_axis=13, lattice=(2, 3, 4))
# Used by the self-test only: every code path, a fraction of the work.
TINY = Sizes(trap_batch=4, sensor_batch=4, slice_half_mm=0.5, gorkov_points_per_axis=5, lattice=(2, 2, 2))


@dataclass
class RoundResult:
    """Outputs and timings of one round (or one pass over a round's inputs).

    ``op_seconds`` holds the wall time of each timed operation and
    ``op_scaled`` the same times rescaled to the reference speed (see
    reference.py), or the wall times again when the pass was not scaled.
    ``kernel_seconds`` holds the reference kernel times around them.
    """

    kernel: reference.Kernel | None = None
    outputs: list = dataclass_field(default_factory=list)
    op_seconds: list = dataclass_field(default_factory=list)
    op_scaled: list = dataclass_field(default_factory=list)
    kernel_seconds: list = dataclass_field(default_factory=list)
    # Scaled time of each task, when a task is made of several operations.
    task_scaled: list = dataclass_field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    @property
    def scaled(self) -> float:
        return sum(self.op_scaled)

    def timed(self, fn):
        """Call ``fn`` and record its time; return its value, or None if it raised.

        When the pass is scaled, the reference kernel runs after the call
        as well, and the call's wall time is rescaled by the kernel times on
        either side of it.
        """
        start = time.perf_counter()
        try:
            output = fn()
        except Exception:
            traceback.print_exc()
            output = None
        wall = time.perf_counter() - start
        self.op_seconds.append(wall)
        if self.kernel is not None:
            self.kernel_seconds.append(self.kernel.seconds())
            wall = self.kernel.scale(wall, *self.kernel_seconds[-2:])
        self.op_scaled.append(wall)
        return output

    @classmethod
    def start(cls, kernel: reference.Kernel | None) -> "RoundResult":
        """An empty result; a pass scaled by ``kernel`` runs it first."""
        result = cls(kernel)
        if kernel is not None:
            result.kernel_seconds.append(kernel.seconds())
        return result


@dataclass
class Verdict:
    """Check results of one round; a failed op raised or failed its check."""

    ops: int = 0
    failed: int = 0
    successes: int = 0
    deviations: list = dataclass_field(default_factory=list)
    # Trapped runs whose deviation at field switch-on exceeded the tolerance.
    late_captures: int = 0
    problems: list = dataclass_field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def round_seed(seed: int, r: int, stream: int) -> int:
    """Independent base seed for round ``r`` of a run, per input stream."""
    return int(np.random.SeedSequence([seed, r, stream]).generate_state(1, np.uint64)[0] >> 2)


class TrapWorkload:
    """A batch of closed-loop trapping scenarios per round."""

    kernel = reference.FRAME

    def __init__(self, name: str, seed: int, sizes: Sizes, jobs: int) -> None:
        self.name = name
        self.seed = seed
        if name == "trap_jitter":
            self.overrides: list[str] = []
            self.batch = sizes.trap_batch
            self.negative = 0
            self.jobs = 1
        else:
            self.overrides = ["vision.noise_sigma=5"]
            self.batch = sizes.sensor_batch
            self.negative = sizes.sensor_batch // 2
            self.jobs = jobs
        self.parallel = self.jobs > 1
        self.first_inputs: list | None = None

    def setup(self) -> None:
        self.config = config.resolve_config(None, self.overrides)
        self.world = control.TrapWorld.from_config(self.config)
        self.first_inputs = self.round_inputs(0)
        # Synthesize each trap type once so lazy state is built before timing.
        cfg = self.config
        centre = cfg.workspace.center
        hologram.make_octahedral_hologram(cfg.array, centre, cfg.trap.octahedron_diameter, cfg.medium)
        if self.negative:
            hologram.make_focus_hologram(cfg.array, centre, cfg.medium)

    def round_inputs(self, r: int) -> list:
        if r == 0 and self.first_inputs is not None:
            return self.first_inputs
        cfg = self.config
        common = dict(
            pixel_noise_sigma=PIXEL_JITTER_PX,
            dropout_prob=DROPOUT_PROB,
            fall_speed=cfg.control.fall_speed,
            timing=cfg.timing,
        )
        positive = control.make_batch_scenarios(
            cfg.workspace, self.batch - self.negative, round_seed(self.seed, r, 0), **common
        )
        if not self.negative:
            return positive
        negative = control.make_batch_scenarios(
            cfg.workspace,
            self.negative,
            round_seed(self.seed, r, 1),
            contrast=Contrast.NEGATIVE,
            **common,
        )
        # Interleave so both pool workers see both trap types.
        mixed = [s for pair in zip(positive, negative) for s in pair]
        return mixed + positive[len(negative):] + negative[len(positive):]

    def execute(self, scenarios: list, parallel: bool, scaled: bool = False) -> RoundResult:
        """Run the scenarios: one timed batch on the pool, or one timed
        ``run_trap_loop`` call per scenario."""
        result = RoundResult.start(self.kernel if scaled else None)
        if parallel:
            batch = result.timed(lambda: control.run_batch(scenarios, self.world, jobs=self.jobs))
            result.outputs = batch.reports if batch is not None else [None] * len(scenarios)
        else:
            for scenario in scenarios:
                result.outputs.append(result.timed(lambda: control.run_trap_loop(scenario, self.world)))
        return result

    def check(self, scenarios: list, result: RoundResult) -> Verdict:
        verdict = Verdict(ops=len(scenarios))
        tol = self.world.containment_tolerance()
        for scenario, report in zip(scenarios, result.outputs):
            where = f"{self.name} scenario seed {scenario.seed}"
            if report is None:
                verdict.fail(f"{where}: raised")
                continue
            trapped = report.outcome == "trapped"
            legal = (trapped and report.failure_reason is None) or (
                report.outcome == "failed" and report.failure_reason in LEGAL_REASONS
            )
            if not legal:
                verdict.fail(f"{where}: illegal outcome {report.outcome}/{report.failure_reason}")
                continue
            if not trapped:
                continue
            # deviation_mm is measured when the field switches on; a particle
            # that misses the radius then but falls into it while the field
            # is on is trapped too. The held position must lie within it.
            held = math.dist(report.frames[-1].particle, report.trap_position)
            if held > tol:
                verdict.fail(f"{where}: trapped {held:.4f} mm from the trap, tolerance {tol:.4f}")
            else:
                verdict.successes += 1
                verdict.deviations.append(report.deviation_mm)
                verdict.late_captures += report.deviation_mm > tol
        # A rerun in this process must reproduce the report byte for byte.
        first = result.outputs[0]
        if first is not None:
            rerun = control.run_trap_loop(scenarios[0], self.world)
            if rerun.to_json() != first.to_json():
                verdict.fail(f"{self.name} scenario seed {scenarios[0].seed}: rerun differs")
        return verdict

    def task_pickle_bytes(self, scenarios: list) -> float:
        """Mean size of the pickled (scenario, world) task a pool worker receives."""
        return float(np.mean([len(pickle.dumps((s, self.world))) for s in scenarios]))


def reference_pressure(array, phases, points, medium, directivity: bool) -> np.ndarray:
    """Direct float64 monopole sum, one point at a time, with the optional
    square-piston directivity. Independent of ``field.pressure_at_points``."""
    lam = wavelength(medium, array)
    k = 2.0 * math.pi / lam
    centres = array.element_centers()
    phi = phases.reshape(-1)
    out = np.empty(len(points), dtype=complex)
    for n, p in enumerate(points):
        delta = p - centres
        d = np.sqrt(np.sum(delta**2, axis=1))
        terms = array.emission_amplitude * np.exp(1j * (phi - k * d)) / d
        if directivity:
            terms *= np.sinc(array.pitch * delta[:, 0] / (lam * d))
            terms *= np.sinc(array.pitch * delta[:, 1] / (lam * d))
        out[n] = terms.sum()
    return out


class FieldDesignWorkload:
    """Slice, Gor'kov potential, trap quality and lattice calibration per round."""

    name = "field_design"
    parallel = False
    kernel = reference.FIELD
    TASKS = ("slice", "potential", "trap_quality", "calibration")
    PROBES = 8
    # The slice is computed in this many bands and the potential grid in
    # this many batches of points, each about one field-kernel chunk.
    SLICE_BANDS = 16
    POTENTIAL_BATCHES = 8

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        self.config = cfg = config.resolve_config(None, [])
        baseline = json.loads(BASELINE.read_text())
        span = baseline["default_span"]
        self.centre = Vec3(*baseline["center_mm"])
        self.expected_ratio = span["contrast_ratio"]
        self.ratio_band = baseline["regression_tolerance"]
        self.cage = OctahedralTrap(self.centre, span["diameter_mm"])
        self.focus = FocusTrap(self.centre)
        self.lam = wavelength(cfg.medium, cfg.array)
        self.cage_holo = hologram.make_octahedral_hologram(
            cfg.array, self.centre, span["diameter_mm"], cfg.medium
        )
        self.focus_holo = hologram.make_focus_hologram(cfg.array, self.centre, cfg.medium)
        self.cameras = calibration.build_camera_pair(cfg.vision)
        rng = np.random.default_rng(round_seed(self.seed, 0, 2))
        offset = rng.uniform(-1.0, 1.0, 3)
        self.lattice_centre = cfg.workspace.center + Vec3(*(float(x) for x in offset))
        self.probe_seed = int(rng.integers(2**62))

    def round_inputs(self, r: int) -> tuple:
        return self.TASKS

    def execute(self, tasks, parallel: bool = False, scaled: bool = False) -> RoundResult:
        """Run each task as a series of timed calls of about 0.3 s.

        A task's time is the sum of its calls' times. Short calls let the
        reference kernel runs between them follow the machine's speed.
        """
        result = RoundResult.start(self.kernel if scaled else None)
        for task in tasks:
            first = len(result.op_scaled)
            result.outputs.append(getattr(self, "_" + task)(result.timed))
            result.task_scaled.append(sum(result.op_scaled[first:]))
        return result

    def _slice(self, timed):
        """The slice, computed in bands of rows along its first axis and
        assembled into one FieldSlice."""
        cfg, c, h = self.config, self.centre, self.sizes.slice_half_mm
        step = self.lam / 20.0
        a_min, b_bounds = c.x - h, (c.z - h, c.z + h)
        rows = len(np.arange(a_min, c.x + h + step / 2, step))
        bands = []
        for band in np.array_split(np.arange(rows), min(self.SLICE_BANDS, rows // 2)):
            bounds = ((a_min + band[0] * step, a_min + band[-1] * step), b_bounds)
            bands.append(
                timed(
                    lambda: field.field_slice(
                        cfg.array,
                        self.cage_holo,
                        PlaneSpec("xoz", c.y),
                        bounds,
                        step,
                        cfg.medium,
                        directivity=True,
                        workspace=cfg.workspace,
                    )
                )
            )
        if any(b is None for b in bands):
            return None
        return FieldSlice(bands[0].plane, bands[0].origin, step, np.concatenate([b.values for b in bands]))

    def _grid(self) -> np.ndarray:
        n = self.sizes.gorkov_points_per_axis
        offs = (np.arange(n) - (n - 1) / 2.0) * (self.lam / 10.0)
        cube = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
        return self.centre.as_array() + cube

    def _potential(self, timed):
        """The potential over the grid, computed in batches of points."""
        cfg = self.config
        particle = ParticleState(position=self.centre, diameter_um=300.0, contrast=Contrast.POSITIVE)
        parts = [
            timed(
                lambda: field.gorkov_potential_at_points(
                    cfg.array, self.cage_holo, batch, cfg.medium, particle, workspace=cfg.workspace
                )
            )
            for batch in np.array_split(self._grid(), self.POTENTIAL_BATCHES)
        ]
        return None if any(u is None for u in parts) else np.concatenate(parts)

    def _trap_quality(self, timed):
        cfg = self.config
        cage = timed(lambda: field.trap_quality(cfg.array, self.cage_holo, self.cage, cfg.medium))
        focus = timed(lambda: field.trap_quality(cfg.array, self.focus_holo, self.focus, cfg.medium))
        return None if cage is None or focus is None else (cage, focus)

    def _calibration(self, timed):
        cfg = self.config
        points = calibration.lattice_points(self.lattice_centre, self.sizes.lattice, 2.0)
        refs = [
            timed(
                lambda: calibration.acquire_reference(
                    cfg.array, cfg.medium, p, self.cameras, scan_extent=2.0, scan_step=0.2
                )
            )
            for p in points
        ]
        if any(r is None for r in refs):
            return None
        first = refs[0]
        pairs = [
            (
                (r.world - first.world).as_array() * 1e3,
                np.array(r.pixel_h + r.pixel_v) - np.array(first.pixel_h + first.pixel_v),
            )
            for r in refs[1:]
        ]
        return timed(lambda: calibration.calibrate_jacobian(pairs))

    def check(self, tasks, result: RoundResult) -> Verdict:
        verdict = Verdict(ops=len(tasks))
        for task, output in zip(tasks, result.outputs):
            if output is None:
                verdict.fail(f"field_design {task}: raised")
                continue
            problem = getattr(self, "_check_" + task)(output)
            if problem:
                verdict.fail(f"field_design {task}: {problem}")
            else:
                verdict.successes += 1
        return verdict

    def _check_slice(self, sl) -> str | None:
        mags = sl.magnitude()
        rng = np.random.default_rng(self.probe_seed)
        n1, n2 = mags.shape
        picks = [np.unravel_index(int(np.argmax(mags)), mags.shape)]
        picks += [(int(rng.integers(n1)), int(rng.integers(n2))) for _ in range(self.PROBES)]
        points = np.array([sl.world_point(ia, ib).as_array() for ia, ib in picks])
        cfg = self.config
        ref = np.abs(reference_pressure(cfg.array, self.cage_holo.phases, points, cfg.medium, True))
        got = np.array([mags[ia, ib] for ia, ib in picks])
        err = float(np.max(np.abs(got - ref)) / mags.max())
        return None if err <= 1e-4 else f"|p| differs from the direct sum by {err:.3g} of peak"

    def _check_potential(self, u) -> str | None:
        grid = self._grid()
        offset = float(np.linalg.norm(grid[int(np.argmin(u))] - self.centre.as_array()))
        return None if offset <= self.lam / 4 else f"minimum {offset:.3f} mm off the cage centre"

    def _check_trap_quality(self, qualities) -> str | None:
        cage, focus = qualities
        rel = abs(cage.contrast_ratio / self.expected_ratio - 1.0)
        if rel > self.ratio_band:
            return f"cage contrast ratio {cage.contrast_ratio:.4g} is {rel:.1%} off the baseline"
        if not (0.0 < focus.lateral_fwhm < focus.axial_fwhm):
            return f"focus widths lateral {focus.lateral_fwhm} axial {focus.axial_fwhm}"
        return None

    def _check_calibration(self, result) -> str | None:
        cam_h, cam_v = self.cameras
        rows = np.vstack([cam_h.rows_of_j, cam_v.rows_of_j])
        if np.allclose(result.jacobian.matrix, rows, rtol=1e-6, atol=1e-12):
            return None
        return f"calibrated jacobian differs from the camera rows by {np.max(np.abs(result.jacobian.matrix - rows)):.3g}"


def make(name: str, seed: int, sizes: Sizes, jobs: int):
    if name == "field_design":
        return FieldDesignWorkload(seed, sizes)
    return TrapWorkload(name, seed, sizes, jobs)
