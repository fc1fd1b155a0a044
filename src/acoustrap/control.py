"""Closed-loop trapping: state machine, scenario runner, batch driver.

One simulated attempt follows the bench sequence. The trap type comes
from the particle's contrast class. Each camera tick first advances the
ground truth, then runs one step of the loop:

- acquiring: render and extract the particle on both cameras, localize
  it, and once three samples form a straight track, predict where it will
  be after the processing and transfer latency, place the trap there and
  schedule the field switch-on (-> dispatching). Each camera renders and
  searches only a crop around the particle's projection
  (``_Attempt.observe``);
- dispatching: wait; the field switches on at exactly the predicted
  instant, inside the ground-truth advance (-> verifying);
- verifying: check containment against ground truth until the particle
  has been held for ``control.hold_ticks`` ticks (-> trapped).

Any step may end in failed. The trap itself is abstracted as a hold: once
the particle is inside the containment radius while the field is on, its
velocity is zeroed. No hologram is synthesized: ``TrapWorld`` checks once,
when it is built, that a focus and a cage hologram exist for every point
of the workspace, and every dispatched trap lies in it.

Determinism: tick k's frame on camera c (h 0, v 1) draws its noise from
the key (scenario seed, 0, k, c) alone (``render_frame``). Jitter and
dropouts come from streams keyed (seed, 2) and (seed, 3), drawn a fixed
amount per acquiring tick, so a scenario reproduces byte-identical
reports. Feature extraction draws no random numbers.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .calibration import JacobianMatrix, ReferenceSet, build_camera_pair, localize
from .config import FULL_IMAGE_SIZE, SimulatorConfig
from .core import Contrast, ParticleState, TimingConfig, Vec3, WorkspaceConfig, usable_cpus, wavelength
from .core import check_ranges, within
from .errors import AcoustrapError, ConfigurationError
from .hologram import MIN_SOURCE_DISTANCE, FocusTrap, OctahedralTrap, TrapSpec, trap_anchor

# Unused here, but perfbench/tracing.py patches these three at this lookup
# site (``PATCHES``) and fails when any name is missing.
from .hologram import make_focus_hologram, make_octahedral_hologram  # noqa: F401
from .vision import background_image  # noqa: F401
from .prediction import TrackSample, confirm_track, predict_position
from .vision import (
    CameraModel,
    FeatureObservation,
    background_pixels,
    extract_feature,
    project,
    render_frame,
    tracking_window,
    window_holds,
)

if TYPE_CHECKING:  # imported when a pool is first needed: a serial run skips it
    from concurrent.futures import ProcessPoolExecutor


class LoopState(Enum):
    ACQUIRING = "acquiring"
    DISPATCHING = "dispatching"
    VERIFYING = "verifying"
    TRAPPED = "trapped"
    FAILED = "failed"


_LEGAL = {
    LoopState.ACQUIRING: {LoopState.DISPATCHING, LoopState.FAILED},
    LoopState.DISPATCHING: {LoopState.VERIFYING, LoopState.FAILED},
    LoopState.VERIFYING: {LoopState.TRAPPED, LoopState.FAILED},
    LoopState.TRAPPED: set(),
    LoopState.FAILED: set(),
}


def _step_state(current: LoopState, target: LoopState) -> LoopState:
    if target not in _LEGAL[current]:
        raise AcoustrapError(f"illegal loop transition {current.value} -> {target.value}")
    return target


@dataclass(frozen=True)
class SimScenario:
    """One reproducible trapping attempt.

    ``pixel_noise_sigma`` jitters the extracted feature coordinates (px);
    ``dropout_prob`` is the chance a camera misses the particle on a tick.
    ``target_override`` places the trap at a fixed point instead of the
    predicted one.
    """

    particle: ParticleState
    pixel_noise_sigma: float = within(0.0, 0.0, float(max(FULL_IMAGE_SIZE)))
    dropout_prob: float = within(0.0, 0.0, lt=1.0)
    seed: int = within(0, 0)
    timing: TimingConfig = TimingConfig()
    target_override: Vec3 | None = None

    def __post_init__(self) -> None:
        check_ranges(self, "scenario")


@dataclass(frozen=True)
class TrapWorld:
    """Static simulation context shared by every scenario: the configuration
    and the camera pair, which both renders the frames and localizes."""

    config: SimulatorConfig
    cameras: tuple[CameraModel, CameraModel]

    def __post_init__(self) -> None:
        # Every dispatched trap lies in the workspace, so its hologram
        # exists when the lowest cage vertex clears the array plane and the
        # aperture holds a whole 2x3 multiplexing block.
        array, workspace = self.config.array, self.config.workspace
        span = self.config.trap.octahedron_diameter
        floor = workspace.min_corner.z
        if floor - span / 2 - array.origin.z <= MIN_SOURCE_DISTANCE:
            raise ConfigurationError(
                f"workspace z_min={floor} leaves no room for a trap.octahedron_diameter={span}"
                f" cage above the array plane z={array.origin.z}"
            )
        if span != 0 and (array.rows < 2 or array.cols < 3):
            raise ConfigurationError(
                f"trap.octahedron_diameter={span} needs an array of at least 2x3 elements,"
                f" got {array.rows}x{array.cols}"
            )

    @classmethod
    def from_config(
        cls,
        config: SimulatorConfig,
        calibration: tuple[JacobianMatrix, ReferenceSet] | None = None,
    ) -> "TrapWorld":
        """The world of ``config`` with the cameras of a native calibration
        (the factory one when None)."""
        return cls(config, build_camera_pair(config.vision, calibration))

    def containment_tolerance(self) -> float:
        """Containment radius, mm: half a wavelength."""
        return wavelength(self.config.medium, self.config.array) / 2.0


def step_particle(state: ParticleState, dt: float) -> ParticleState:
    """Advance ballistic motion by ``dt`` seconds (constant velocity)."""
    if dt < 0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    return ParticleState(
        state.position + dt * state.velocity,
        state.velocity,
        state.diameter_um,
        state.contrast,
    )


def containment(position: Vec3, trap: TrapSpec, tol: float) -> bool:
    """True when ``position`` lies within ``tol`` mm of the trap anchor."""
    return position.distance_to(trap_anchor(trap)) <= tol


@dataclass(frozen=True)
class FrameRecord:
    """Per-tick log entry of a scenario run."""

    index: int
    t: float
    state: str
    particle: tuple[float, float, float]
    observed_h: tuple[float, float] | None = None
    observed_v: tuple[float, float] | None = None
    localized: tuple[float, float, float] | None = None
    contained: bool | None = None


@dataclass(frozen=True)
class TrapReport:
    """Outcome of one scenario run; serializes deterministically."""

    outcome: str
    failure_reason: str | None
    trap_type: str
    seed: int
    time_to_trap: float | None
    activation_time: float | None
    trap_position: tuple[float, float, float] | None
    particle_at_activation: tuple[float, float, float] | None
    deviation_mm: float | None
    frames: tuple[FrameRecord, ...]

    @property
    def trapped(self) -> bool:
        return self.outcome == "trapped"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))


def _as_tuple(v: Vec3 | None) -> tuple[float, float, float] | None:
    return None if v is None else (v.x, v.y, v.z)


class _Attempt:
    """Mutable state of one closed-loop attempt and its per-tick steps."""

    def __init__(self, scenario: SimScenario, world: TrapWorld) -> None:
        self.scenario, self.world, self.config = scenario, world, world.config
        self.tol = world.containment_tolerance()
        self.cameras = tuple(
            (cam, background_pixels(cam), scenario.particle.diameter_um * cam.pixel_scale)
            for cam in world.cameras
        )
        # extraction needs a particle more than 3 px wide; say so before the
        # first tick, in the settings that set its size
        narrowest = min(expected_px for _, _, expected_px in self.cameras)
        if not narrowest > 3:
            raise ConfigurationError(
                f"a particle of diameter_um={scenario.particle.diameter_um} images {narrowest:.3g} px"
                f" wide at vision.scale={self.config.vision.scale}; extraction needs more than 3 px,"
                " so raise vision.scale or the diameter"
            )
        # a straight path stays finite when its last frame's position is
        p, v = scenario.particle.position, scenario.particle.velocity
        budget, fps = self.config.control.frame_budget, self.config.timing.camera_fps
        if not all(map(math.isfinite, _as_tuple(p + (budget - 1) / fps * v))):
            raise ConfigurationError(
                f"a particle at position {_as_tuple(p)} mm with velocity {_as_tuple(v)} mm/s leaves"
                f" the float range within control.frame_budget={budget} frames at timing.camera_fps={fps}"
            )
        keys = (np.random.SeedSequence(scenario.seed, spawn_key=(i,)) for i in (2, 3))
        self.jitter_rng, self.dropout_rng = map(np.random.default_rng, keys)
        self.particle = scenario.particle
        self.state = LoopState.ACQUIRING
        self.reason: str | None = None
        self.t = 0.0
        self.samples: deque = deque(maxlen=3)
        self.trap: TrapSpec | None = None
        self.activation_t: float | None = None
        self.particle_at_activation: Vec3 | None = None
        self.deviation: float | None = None
        self.pinned = False
        self.hold = 0

    def to(self, target: LoopState, reason: str | None = None) -> None:
        self.state = _step_state(self.state, target)
        self.reason = reason

    def advance(self, t: float) -> None:
        """Move the ground truth to ``t``, switching the field on exactly when due."""
        if self.state is LoopState.DISPATCHING and self.t < self.activation_t <= t:
            self.particle = step_particle(self.particle, self.activation_t - self.t)
            self.t = self.activation_t
            self.particle_at_activation = self.particle.position
            self.deviation = self.particle.position.distance_to(trap_anchor(self.trap))
            self.catch()
            self.to(LoopState.VERIFYING)
        self.particle = step_particle(self.particle, t - self.t)
        self.t = t

    def catch(self) -> bool:
        """Containment check; the field on holds a contained particle still."""
        contained = containment(self.particle.position, self.trap, self.tol)
        if contained and not self.pinned:
            p = self.particle
            self.particle = ParticleState(p.position, Vec3(0.0, 0.0, 0.0), p.diameter_um, p.contrast)
            self.pinned = True
        return contained

    def acquire(self, k: int, t: float) -> tuple:
        """Observe tick ``k`` on both cameras and localize; returns (observed_h,
        observed_v, localized) and dispatches once the track is confirmed."""
        if not self.config.workspace.contains(self.particle.position):
            self.to(LoopState.FAILED, "detection_starvation")
            return None, None, None
        jitter = self.jitter_rng.normal(0.0, self.scenario.pixel_noise_sigma, size=(2, 2))
        dropped = [self.dropout_rng.uniform() < self.scenario.dropout_prob for _ in self.cameras]
        observed = []
        for c, (camera, drop, (du, dv)) in enumerate(zip(self.cameras, dropped, jitter)):
            obs = None if drop else self.observe(camera, (self.scenario.seed, 0, k, c))
            observed.append(None if obs is None else (obs.u + du, obs.v + dv))
        if None in observed:
            return observed[0], observed[1], None
        loc = localize(self.world.cameras, observed[0], observed[1])
        self.samples.append(TrackSample(loc, t))
        if len(self.samples) == 3 and confirm_track(list(self.samples), self.config.control.confirm_tol):
            self.dispatch(t, predict_position(list(self.samples), self.scenario.timing).predicted)
        return observed[0], observed[1], _as_tuple(loc)

    def observe(self, camera: tuple, key: tuple[int, ...]) -> FeatureObservation | None:
        """Render one camera and extract the particle; None for a miss.
        Only a crop is rendered and searched: the tracking window around
        the particle's projection, where the frame draws its disc. The
        observation counts only when that crop holds it (``window_holds``).
        """
        cam, background, expected_px = camera
        window = tracking_window(cam.image_size, project(cam, self.particle.position), expected_px)
        if window is None:
            return None
        frame = render_frame(cam, self.particle, key, window)
        obs = extract_feature(frame, background[window.slices], expected_px, self.config.vision)
        return obs if window_holds(obs, window, cam.image_size, expected_px) else None

    def dispatch(self, t: float, predicted: Vec3) -> None:
        """Place the trap at the target and schedule the switch-on."""
        target = self.scenario.target_override
        if target is None:
            target = predicted
        if not self.config.workspace.contains(target):
            self.to(LoopState.FAILED, "target_outside_workspace")
            return
        if self.scenario.particle.contrast is Contrast.NEGATIVE:
            self.trap = FocusTrap(target)
        else:
            self.trap = OctahedralTrap(target, self.config.trap.octahedron_diameter)
        self.activation_t = t + self.scenario.timing.horizon
        self.to(LoopState.DISPATCHING)

    def verify(self, t: float) -> bool | None:
        """Containment against ground truth; trapped after enough held ticks."""
        if not self.pinned and not self.config.workspace.contains(self.particle.position):
            self.to(LoopState.FAILED, "left_fov")
            return None
        contained = self.catch()
        self.hold = self.hold + 1 if contained else 0
        if self.hold >= self.config.control.hold_ticks:
            self.to(LoopState.TRAPPED)
        return contained


def run_trap_loop(scenario: SimScenario, world: TrapWorld) -> TrapReport:
    """Run one closed-loop trapping attempt to a terminal state."""
    if scenario.timing != world.config.timing:
        raise ConfigurationError("scenario.timing must equal the configuration's timing section")
    run = _Attempt(scenario, world)
    frames: list[FrameRecord] = []
    for k in range(world.config.control.frame_budget):
        t = k / scenario.timing.camera_fps
        run.advance(t)
        observed, contained = (None, None, None), None
        if run.state is LoopState.ACQUIRING:
            observed = run.acquire(k, t)
        elif run.state is LoopState.VERIFYING:
            contained = run.verify(t)
        frames.append(
            FrameRecord(k, t, run.state.value, _as_tuple(run.particle.position), *observed, contained)
        )
        if run.state in (LoopState.TRAPPED, LoopState.FAILED):
            break

    trapped = run.state is LoopState.TRAPPED
    reason = run.reason
    if run.state not in (LoopState.TRAPPED, LoopState.FAILED):  # frame budget spent
        reason = "detection_starvation" if run.state is LoopState.ACQUIRING else "frame_budget_exhausted"
    return TrapReport(
        outcome="trapped" if trapped else "failed",
        failure_reason=reason,
        trap_type="focus" if scenario.particle.contrast is Contrast.NEGATIVE else "octahedral",
        seed=scenario.seed,
        time_to_trap=frames[-1].t if trapped else None,
        activation_time=run.activation_t,
        trap_position=_as_tuple(trap_anchor(run.trap)) if run.trap is not None else None,
        particle_at_activation=_as_tuple(run.particle_at_activation),
        deviation_mm=run.deviation,
        frames=tuple(frames),
    )


def make_batch_scenarios(
    workspace: WorkspaceConfig,
    n: int,
    base_seed: int,
    *,
    pixel_noise_sigma: float = 0.0,
    dropout_prob: float = 0.0,
    contrast: Contrast = Contrast.POSITIVE,
    diameter_um: float = 400.0,
    fall_speed: float = 10.0,
    timing: TimingConfig = TimingConfig(),
) -> list[SimScenario]:
    """Reproducible scenario batch with randomized start positions.

    Starts are drawn from the central half of the workspace footprint and
    an upper band of its height, so every particle is visible to both
    cameras and has room to fall during acquisition.
    """
    if n < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {n}")
    lo, hi = workspace.min_corner, workspace.max_corner
    x_lo = workspace.center.x - workspace.extent.x * 0.25
    x_hi = workspace.center.x + workspace.extent.x * 0.25
    y_lo = workspace.center.y - workspace.extent.y * 0.25
    y_hi = workspace.center.y + workspace.extent.y * 0.25
    z_lo = workspace.center.z + workspace.extent.z * 0.10
    z_hi = workspace.center.z + workspace.extent.z * 0.27
    scenarios = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(i,)))
        position = Vec3(
            float(rng.uniform(x_lo, x_hi)),
            float(rng.uniform(y_lo, y_hi)),
            float(rng.uniform(z_lo, z_hi)),
        )
        scenarios.append(
            SimScenario(
                particle=ParticleState(
                    position, Vec3(0.0, 0.0, -fall_speed), diameter_um, contrast
                ),
                pixel_noise_sigma=pixel_noise_sigma,
                dropout_prob=dropout_prob,
                seed=int(rng.integers(2**62)),
                timing=timing,
            )
        )
    return scenarios


@dataclass
class BatchResult:
    reports: list[TrapReport]

    @property
    def success_rate(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.trapped for r in self.reports) / len(self.reports)

    def deviations(self) -> list[float]:
        return [r.deviation_mm for r in self.reports if r.trapped and r.deviation_mm is not None]

    @property
    def median_deviation(self) -> float | None:
        devs = self.deviations()
        return float(np.median(devs)) if devs else None

    @property
    def mean_deviation(self) -> float | None:
        devs = self.deviations()
        return float(np.mean(devs)) if devs else None

    @property
    def mean_time_to_trap(self) -> float | None:
        times = [r.time_to_trap for r in self.reports if r.trapped and r.time_to_trap is not None]
        return float(np.mean(times)) if times else None


def run_batch(scenarios: Sequence[SimScenario], world: TrapWorld, jobs: int = 1) -> BatchResult:
    """Run scenarios on up to ``jobs`` worker processes; order is preserved.

    The pool never outnumbers the scenarios or the CPUs this process may use.
    Its workers fork at the first pooled call and are reused by later calls
    of the same worker count (``_worker_pool``), so module state changed
    after that fork, for example by a test's monkeypatch, is not seen by
    them. A scenario's exception reaches the caller and cancels the
    scenarios not yet started; the pool stays. A worker that dies during
    the call breaks the pool: ``BrokenProcessPool`` reaches the caller and
    the pool is dropped. One that died between calls is found when the next
    batch is submitted, and that batch runs on a fresh pool. The workers
    end when the interpreter exits, and within a second of this process
    being killed.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    scenarios = list(scenarios)
    workers = _pool_size(jobs, len(scenarios), usable_cpus())
    if workers == 1:
        return BatchResult([run_trap_loop(s, world) for s in scenarios])
    from concurrent.futures.process import BrokenProcessPool

    # Four chunks per worker send fewer, larger messages than one scenario
    # per task and still balance the load.
    tasks = [(s, world) for s in scenarios]
    chunksize = max(1, len(tasks) // (4 * workers))
    try:
        # map submits every chunk before it returns, so a pool that a worker
        # death broke while it sat idle raises here, and the batch reruns
        # on a fresh pool
        results = _worker_pool(workers).map(_run_one, tasks, chunksize=chunksize)
    except BrokenProcessPool:
        _close_pool()
        results = _worker_pool(workers).map(_run_one, tasks, chunksize=chunksize)
    try:
        return BatchResult(list(results))
    except BrokenProcessPool:
        _close_pool()
        raise


# The process's worker pool, as (worker count, executor), and the lock that
# guards replacing it. One pool lives at a time: it is shut down, its
# manager thread and workers joined, before another forks.
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.RLock()
# How often a pool worker checks that the process that forked it is alive.
_PARENT_POLL_S = 0.5


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``workers`` worker processes, forked by its
    first task; a pool of another size is shut down and replaced. Workers
    fork wherever the platform can, whatever the interpreter's default
    start method, so they start with this process's state and it is their
    parent. ``concurrent.futures`` joins them when the interpreter exits; a
    worker whose parent was killed exits by itself (``_end_with_parent``)."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _close_pool()
        if _pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(method),
                initializer=_end_with_parent,
                initargs=(os.getpid(),),
            )
            _pool = (workers, executor)
        return _pool[1]


def _end_with_parent(parent: int) -> None:
    """Pool worker initializer: exit once ``parent`` has gone. A parent
    that exits normally joins its workers; one killed by a signal cannot,
    and its idle workers would wait for tasks forever."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="acoustrap-parent-watch", daemon=True).start()


def _close_pool() -> None:
    """Shut the cached pool down, joining its manager thread and workers."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
        if pool is not None:
            pool[1].shutdown(wait=True)


# By the time atexit hooks run, concurrent.futures has joined the workers.
# Dropping the pool here, before module teardown, lets the executor's
# collection callback run while multiprocessing is still importable; left
# to teardown, it prints an ignored AttributeError at exit.
atexit.register(_close_pool)


def _pool_size(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``tasks`` scenarios: ``jobs`` clamped to the
    task and CPU counts."""
    return min(jobs, tasks, cpus)


def _run_one(args: tuple[SimScenario, TrapWorld]) -> TrapReport:
    scenario, world = args
    return run_trap_loop(scenario, world)
