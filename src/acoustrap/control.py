"""Closed-loop trapping: state machine, scenario runner, batch driver.

One simulated attempt follows the bench sequence: pick the trap type from
the particle's contrast class, localize the falling particle on three
camera ticks, confirm the track is straight, predict where the particle
will be after the processing and transfer latency, synthesize the
hologram for that point, switch the field on at exactly the predicted
instant, and verify containment against ground truth. The trap itself is
abstracted as a hold: once the particle is inside the containment radius
while the field is on, its velocity is zeroed.

Determinism: every random draw (render noise, pixel jitter, dropouts)
comes from streams spawned off the scenario seed, and consumption per
tick is fixed regardless of outcomes, so a scenario always reproduces
byte-identical reports. Feature extraction draws no random numbers.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .calibration import JacobianMatrix, ReferenceSet, build_camera_pair, default_calibration, localize
from .config import ControlConfig, FieldConfig, SimulatorConfig, TrapConfig, VisionConfig
from .core import (
    Contrast,
    MediumConfig,
    ParticleState,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    wavelength,
)
from .errors import AcoustrapError, ConfigurationError, GeometryError
from .hologram import (
    FocusTrap,
    OctahedralTrap,
    TrapSpec,
    make_focus_hologram,
    make_octahedral_hologram,
    trap_anchor,
)
from .prediction import TrackSample, confirm_track, predict_position
from .vision import CameraModel, background_image, extract_feature, render_frame


class LoopState(Enum):
    MATERIAL_SELECTED = "material_selected"
    ACQUIRING = "acquiring"
    PREDICTING = "predicting"
    DISPATCHING = "dispatching"
    FIELD_ACTIVE = "field_active"
    VERIFYING = "verifying"
    TRAPPED = "trapped"
    FAILED = "failed"


_LEGAL = {
    LoopState.MATERIAL_SELECTED: {LoopState.ACQUIRING},
    LoopState.ACQUIRING: {LoopState.PREDICTING, LoopState.FAILED},
    LoopState.PREDICTING: {LoopState.ACQUIRING, LoopState.DISPATCHING, LoopState.FAILED},
    LoopState.DISPATCHING: {LoopState.FIELD_ACTIVE, LoopState.FAILED},
    LoopState.FIELD_ACTIVE: {LoopState.VERIFYING, LoopState.FAILED},
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
    ``trap_diameter`` overrides the configured node cage span; None keeps
    the default. ``target_override`` places the trap at a fixed point
    instead of the predicted one.
    """

    particle: ParticleState
    pixel_noise_sigma: float = 0.0
    dropout_prob: float = 0.0
    seed: int = 0
    timing: TimingConfig = TimingConfig()
    trap_diameter: float | None = None
    target_override: Vec3 | None = None

    def __post_init__(self) -> None:
        if self.pixel_noise_sigma < 0:
            raise ConfigurationError(
                f"scenario.pixel_noise_sigma must be >= 0, got {self.pixel_noise_sigma}"
            )
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ConfigurationError(
                f"scenario.dropout_prob must be in [0, 1), got {self.dropout_prob}"
            )
        if self.trap_diameter is not None and self.trap_diameter < 0:
            raise ConfigurationError(
                f"scenario.trap_diameter must be >= 0, got {self.trap_diameter}"
            )


@dataclass(frozen=True)
class TrapWorld:
    """Static simulation context shared by every scenario."""

    array: TransducerArray
    medium: MediumConfig
    workspace: WorkspaceConfig
    vision: VisionConfig
    trap: TrapConfig
    control: ControlConfig
    field: FieldConfig
    camera_h: CameraModel
    camera_v: CameraModel
    jacobian: JacobianMatrix
    refs: ReferenceSet

    def __post_init__(self) -> None:
        for cam, block in ((self.camera_h, "h"), (self.camera_v, "v")):
            if not np.allclose(cam.rows_of_j, self.jacobian.camera_rows(block), rtol=1e-9, atol=0):
                raise ConfigurationError(
                    f"camera_{block} rows do not match the localization jacobian;"
                    " build both from the same calibration and scale"
                )

    @classmethod
    def from_config(
        cls,
        config: SimulatorConfig,
        jacobian: JacobianMatrix | None = None,
        refs: ReferenceSet | None = None,
    ) -> "TrapWorld":
        if jacobian is None or refs is None:
            jac0, refs0 = default_calibration()
            jacobian = jacobian or jac0
            refs = refs or refs0
        cam_h, cam_v = build_camera_pair(config.vision, jacobian, refs)
        s = config.vision.scale
        return cls(
            array=config.array,
            medium=config.medium,
            workspace=config.workspace,
            vision=config.vision,
            trap=config.trap,
            control=config.control,
            field=config.field,
            camera_h=cam_h,
            camera_v=cam_v,
            jacobian=jacobian.scaled(s),
            refs=refs.scaled(s),
        )

    def containment_tolerance(self) -> float:
        if self.trap.containment_tol is not None:
            return self.trap.containment_tol
        return wavelength(self.medium, self.array) / 2.0


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


def containment(particle, trap: TrapSpec, tol: float) -> bool:
    """True when the particle sits within ``tol`` mm of the trap anchor."""
    position = particle.position if isinstance(particle, ParticleState) else particle
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

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "failure_reason": self.failure_reason,
            "trap_type": self.trap_type,
            "seed": self.seed,
            "time_to_trap": self.time_to_trap,
            "activation_time": self.activation_time,
            "trap_position": list(self.trap_position) if self.trap_position else None,
            "particle_at_activation": (
                list(self.particle_at_activation) if self.particle_at_activation else None
            ),
            "deviation_mm": self.deviation_mm,
            "frames": [
                {
                    "index": f.index,
                    "t": f.t,
                    "state": f.state,
                    "particle": list(f.particle),
                    "observed_h": list(f.observed_h) if f.observed_h else None,
                    "observed_v": list(f.observed_v) if f.observed_v else None,
                    "localized": list(f.localized) if f.localized else None,
                    "contained": f.contained,
                }
                for f in self.frames
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _as_tuple(v: Vec3) -> tuple[float, float, float]:
    return (v.x, v.y, v.z)


def run_trap_loop(scenario: SimScenario, world: TrapWorld) -> TrapReport:
    """Run one closed-loop trapping attempt to a terminal state."""
    timing = scenario.timing
    fps = timing.camera_fps
    budget = world.control.frame_budget
    tol = world.containment_tolerance()
    bg_h = background_image(world.camera_h)
    bg_v = background_image(world.camera_v)
    expected_h = scenario.particle.diameter_um * world.camera_h.pixel_scale
    expected_v = scenario.particle.diameter_um * world.camera_v.pixel_scale

    # streams[1] is unused; the render, jitter and dropout streams keep
    # their indices so each seed's draws stay fixed.
    streams = np.random.SeedSequence(scenario.seed).spawn(5)
    render_seeds = np.random.default_rng(streams[0])
    jitter_rng = np.random.default_rng(streams[2])
    dropout_rng = np.random.default_rng(streams[3])

    negative = scenario.particle.contrast is Contrast.NEGATIVE
    trap_type = "focus" if negative else "octahedral"
    diameter = (
        scenario.trap_diameter
        if scenario.trap_diameter is not None
        else world.trap.octahedron_diameter
    )

    particle = scenario.particle
    state = _step_state(LoopState.MATERIAL_SELECTED, LoopState.ACQUIRING)
    samples: deque = deque(maxlen=3)
    frames: list[FrameRecord] = []
    trap: TrapSpec | None = None
    activation_t: float | None = None
    particle_at_activation: Vec3 | None = None
    deviation: float | None = None
    pinned = False
    hold = 0
    outcome: str | None = None
    reason: str | None = None
    time_to_trap: float | None = None
    prev_t = 0.0

    def fail(why: str) -> None:
        nonlocal state, outcome, reason
        state = _step_state(state, LoopState.FAILED)
        outcome, reason = "failed", why

    for k in range(budget):
        t = k / fps

        # Advance ground truth, switching the field on exactly when due.
        if (
            state is LoopState.DISPATCHING
            and activation_t is not None
            and prev_t < activation_t <= t
        ):
            particle = step_particle(particle, activation_t - prev_t)
            state = _step_state(state, LoopState.FIELD_ACTIVE)
            particle_at_activation = particle.position
            deviation = particle.position.distance_to(trap_anchor(trap))
            if deviation <= tol:
                particle = ParticleState(
                    particle.position, Vec3(0.0, 0.0, 0.0), particle.diameter_um, particle.contrast
                )
                pinned = True
            state = _step_state(state, LoopState.VERIFYING)
            particle = step_particle(particle, t - activation_t)
        else:
            particle = step_particle(particle, t - prev_t)
        prev_t = t

        if not pinned and not world.workspace.contains(particle.position):
            if state in (LoopState.ACQUIRING, LoopState.PREDICTING):
                fail("detection_starvation")
            elif state is LoopState.VERIFYING:
                fail("left_fov")
            if state is LoopState.FAILED:
                frames.append(FrameRecord(k, t, state.value, _as_tuple(particle.position)))
                break

        observed_h = observed_v = None
        localized = None
        contained_tick: bool | None = None

        if state is LoopState.ACQUIRING:
            # Fixed per-tick stream consumption keeps runs reproducible.
            seed_h = int(render_seeds.integers(2**63))
            seed_v = int(render_seeds.integers(2**63))
            jitter = jitter_rng.normal(0.0, scenario.pixel_noise_sigma, size=4)
            drop_h = bool(dropout_rng.uniform() < scenario.dropout_prob)
            drop_v = bool(dropout_rng.uniform() < scenario.dropout_prob)

            if not drop_h:
                frame_h = render_frame(world.camera_h, particle, t, seed_h)
                obs = extract_feature(frame_h, bg_h, expected_h, world.vision)
                if obs.valid:
                    observed_h = (obs.u + jitter[0], obs.v + jitter[1])
            if not drop_v:
                frame_v = render_frame(world.camera_v, particle, t, seed_v)
                obs = extract_feature(frame_v, bg_v, expected_v, world.vision)
                if obs.valid:
                    observed_v = (obs.u + jitter[2], obs.v + jitter[3])

            if observed_h is not None and observed_v is not None:
                loc = localize(world.jacobian, world.refs, observed_h, observed_v)
                localized = _as_tuple(loc)
                samples.append(TrackSample(loc, t))
                if len(samples) == 3:
                    state = _step_state(state, LoopState.PREDICTING)
                    if confirm_track(list(samples), world.control.confirm_tol):
                        result = predict_position(list(samples), timing)
                        target = (
                            scenario.target_override
                            if scenario.target_override is not None
                            else result.predicted
                        )
                        if not world.workspace.contains(target):
                            fail("target_outside_workspace")
                        else:
                            trap = (
                                FocusTrap(target)
                                if negative
                                else OctahedralTrap(target, diameter)
                            )
                            try:
                                if negative:
                                    make_focus_hologram(world.array, target, world.medium)
                                else:
                                    make_octahedral_hologram(
                                        world.array, target, diameter, world.medium
                                    )
                            except GeometryError:
                                fail("trap_geometry")
                            else:
                                activation_t = t + timing.horizon
                                state = _step_state(state, LoopState.DISPATCHING)
                    else:
                        state = _step_state(state, LoopState.ACQUIRING)

        elif state is LoopState.VERIFYING:
            contained_tick = containment(particle, trap, tol)
            if contained_tick:
                if not pinned:
                    particle = ParticleState(
                        particle.position,
                        Vec3(0.0, 0.0, 0.0),
                        particle.diameter_um,
                        particle.contrast,
                    )
                    pinned = True
                hold += 1
                if hold >= world.control.hold_ticks:
                    state = _step_state(state, LoopState.TRAPPED)
                    outcome = "trapped"
                    time_to_trap = t
            else:
                hold = 0

        frames.append(
            FrameRecord(
                k,
                t,
                state.value,
                _as_tuple(particle.position),
                observed_h,
                observed_v,
                localized,
                contained_tick,
            )
        )
        if state in (LoopState.TRAPPED, LoopState.FAILED):
            break

    if outcome is None:
        if state in (LoopState.ACQUIRING, LoopState.PREDICTING):
            reason = "detection_starvation"
        else:
            reason = "frame_budget_exhausted"
        outcome = "failed"

    return TrapReport(
        outcome=outcome,
        failure_reason=reason,
        trap_type=trap_type,
        seed=scenario.seed,
        time_to_trap=time_to_trap,
        activation_time=activation_t,
        trap_position=_as_tuple(trap_anchor(trap)) if trap is not None else None,
        particle_at_activation=(
            _as_tuple(particle_at_activation) if particle_at_activation is not None else None
        ),
        deviation_mm=deviation,
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
    trap_diameter: float | None = None,
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
                trap_diameter=trap_diameter,
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
    """Run scenarios (optionally across processes); order is preserved."""
    scenarios = list(scenarios)
    if jobs > 1 and len(scenarios) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_one, [(s, world) for s in scenarios], chunksize=1))
    else:
        reports = [run_trap_loop(s, world) for s in scenarios]
    return BatchResult(reports)


def _run_one(args: tuple[SimScenario, TrapWorld]) -> TrapReport:
    scenario, world = args
    return run_trap_loop(scenario, world)
