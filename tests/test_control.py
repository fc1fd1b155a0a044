import dataclasses
import hashlib
import json

import numpy as np
import pytest

from acoustrap.config import ControlConfig, SimulatorConfig, TrapConfig, VisionConfig, WorkspaceConfig
from acoustrap.control import (
    LoopState,
    SimScenario,
    TrapWorld,
    _pool_size,
    _step_state,
    containment,
    make_batch_scenarios,
    run_batch,
    run_trap_loop,
    step_particle,
)
from acoustrap.core import Contrast, ParticleState, TimingConfig, TransducerArray, Vec3, wavelength
from acoustrap.errors import AcoustrapError, ConfigurationError
from acoustrap.hologram import FocusTrap, OctahedralTrap, make_focus_hologram, make_octahedral_hologram
from acoustrap.vision import Window, project, render_frame, tracking_window


def falling_particle(start=Vec3(25.0, 25.0, 50.0), speed=10.0, contrast=Contrast.POSITIVE):
    return ParticleState(start, Vec3(0.0, 0.0, -speed), 400.0, contrast)


@pytest.fixture(scope="module")
def noiseless_report(world):
    return run_trap_loop(SimScenario(particle=falling_particle(), seed=7), world)


class TestStateMachine:
    def test_nominal_path(self):
        order = [
            LoopState.ACQUIRING,
            LoopState.DISPATCHING,
            LoopState.VERIFYING,
            LoopState.TRAPPED,
        ]
        state = order[0]
        for nxt in order[1:]:
            state = _step_state(state, nxt)
        assert state is LoopState.TRAPPED

    def test_retry_and_failure_edges(self):
        # an unconfirmed track retries by staying in acquiring: no edge needed
        assert len(LoopState) == 5
        for src in (LoopState.ACQUIRING, LoopState.DISPATCHING, LoopState.VERIFYING):
            assert _step_state(src, LoopState.FAILED) is LoopState.FAILED

    @pytest.mark.parametrize(
        "src,dst",
        [
            (LoopState.DISPATCHING, LoopState.TRAPPED),
            (LoopState.ACQUIRING, LoopState.VERIFYING),
            (LoopState.VERIFYING, LoopState.ACQUIRING),
            (LoopState.TRAPPED, LoopState.ACQUIRING),
            (LoopState.FAILED, LoopState.ACQUIRING),
        ],
    )
    def test_illegal_transitions_rejected(self, src, dst):
        with pytest.raises(AcoustrapError, match="illegal loop transition"):
            _step_state(src, dst)


class TestStepParticle:
    def test_fall_one_frame(self):
        state = step_particle(falling_particle(), 1.0 / 15.0)
        assert state.position.z == pytest.approx(50.0 - 0.6667, abs=5e-5)
        assert state.velocity == Vec3(0.0, 0.0, -10.0)

    def test_zero_velocity_fixed_point(self):
        still = ParticleState(Vec3(1, 2, 3), Vec3(0, 0, 0), 100.0, Contrast.POSITIVE)
        assert step_particle(still, 5.0).position == Vec3(1, 2, 3)

    def test_half_steps_compose_exactly(self):
        p = ParticleState(Vec3(0, 0, 40), Vec3(1.5, -2.0, -10.0), 200.0, Contrast.NEGATIVE)
        whole = step_particle(p, 0.5)
        halves = step_particle(step_particle(p, 0.25), 0.25)
        assert halves.position.distance_to(whole.position) < 1e-12

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            step_particle(falling_particle(), -0.1)


class TestContainment:
    def test_at_center(self, world):
        trap = OctahedralTrap(Vec3(25, 25, 40))
        assert containment(Vec3(25, 25, 40), trap, world.containment_tolerance())

    def test_table_scale_deviation_counts(self, world):
        tol = world.containment_tolerance()
        trap = FocusTrap(Vec3(25, 25, 40))
        assert containment(Vec3(25, 25 + 0.236, 40), trap, tol)
        assert not containment(Vec3(25, 25 + 0.5, 40), trap, tol)

    def test_default_tolerance_is_half_wavelength(self, world):
        expected = wavelength(world.config.medium, world.config.array) / 2.0
        assert world.containment_tolerance() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.326, abs=1e-3)

    def test_accepts_particle_state(self, world):
        trap = OctahedralTrap(Vec3(25, 25, 40))
        particle = ParticleState(Vec3(25, 25, 40.1), Vec3(0, 0, 0), 400.0, Contrast.POSITIVE)
        assert containment(particle, trap, world.containment_tolerance())


class TestScenarioValidation:
    def test_noise_and_dropout_bounds(self):
        with pytest.raises(ConfigurationError):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=-1.0)
        with pytest.raises(ConfigurationError, match="pixel_noise_sigma"):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=float("nan"))
        with pytest.raises(ConfigurationError, match="pixel_noise_sigma"):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=float("inf"))
        with pytest.raises(ConfigurationError):
            SimScenario(particle=falling_particle(), dropout_prob=1.0)

    def test_loop_rejects_timing_other_than_the_world_config(self, world):
        scenario = SimScenario(particle=falling_particle(), seed=7, timing=TimingConfig(camera_fps=30.0))
        with pytest.raises(ConfigurationError, match="scenario.timing"):
            run_trap_loop(scenario, world)
        with pytest.raises(ConfigurationError, match="scenario.timing"):
            run_batch([scenario], world)


class TestNoiselessRun:
    def test_traps_with_small_deviation(self, noiseless_report):
        r = noiseless_report
        assert r.trapped and r.outcome == "trapped"
        assert r.failure_reason is None
        assert r.trap_type == "octahedral"
        assert r.deviation_mm < 0.05

    def test_time_to_trap(self, noiseless_report):
        # 3 samples by tick 2, dispatch, activate mid-flight, 3 held ticks
        assert noiseless_report.time_to_trap == pytest.approx(7.0 / 15.0, abs=1e-12)

    def test_activation_causality_exact(self, noiseless_report):
        r = noiseless_report
        third = [f for f in r.frames if f.localized is not None][2]
        assert r.activation_time == third.t + TimingConfig().horizon

    def test_deviation_matches_logged_positions(self, noiseless_report):
        r = noiseless_report
        trap = Vec3(*r.trap_position)
        at_activation = Vec3(*r.particle_at_activation)
        assert r.deviation_mm == pytest.approx(trap.distance_to(at_activation), abs=1e-12)

    def test_byte_identical_reports(self, world):
        scenario = SimScenario(particle=falling_particle(), seed=7)
        a = run_trap_loop(scenario, world).to_json()
        b = run_trap_loop(scenario, world).to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["outcome"] == "trapped"
        assert parsed["frames"][0]["index"] == 0

    def test_negative_contrast_uses_focus_trap(self, world):
        scenario = SimScenario(particle=falling_particle(contrast=Contrast.NEGATIVE), seed=9)
        r = run_trap_loop(scenario, world)
        assert r.trap_type == "focus"
        assert r.trapped
        assert r.deviation_mm < 0.05


class TestFailureModes:
    def test_upward_exit_before_confirmation(self, world):
        scenario = SimScenario(
            particle=ParticleState(
                Vec3(25, 25, 54), Vec3(0, 0, 30.0), 400.0, Contrast.POSITIVE
            ),
            seed=3,
        )
        r = run_trap_loop(scenario, world)
        assert r.outcome == "failed"
        assert r.failure_reason == "detection_starvation"
        assert not r.trapped

    def test_missed_trap_then_particle_leaves(self, world):
        # trap pinned 6 mm off the fall line: never contained, falls out
        scenario = SimScenario(
            particle=falling_particle(Vec3(25, 25, 52)),
            seed=5,
            target_override=Vec3(25.0, 31.0, 40.0),
        )
        r = run_trap_loop(scenario, world)
        assert r.failure_reason == "left_fov"
        assert r.frames[-1].state == "failed"

    def test_target_outside_workspace(self, world):
        scenario = SimScenario(
            particle=falling_particle(),
            seed=5,
            target_override=Vec3(25.0, 25.0, 70.0),
        )
        r = run_trap_loop(scenario, world)
        assert r.failure_reason == "target_outside_workspace"

    def test_frame_budget_exhausted(self, config):
        world = TrapWorld.from_config(
            SimulatorConfig(control=ControlConfig(frame_budget=5))
        )
        r = run_trap_loop(SimScenario(particle=falling_particle(), seed=7), world)
        assert r.failure_reason == "frame_budget_exhausted"
        assert len(r.frames) == 5

    def test_cage_reaching_below_array_plane(self):
        # a workspace hugging the array, where the bottom cage vertex would
        # dip below the plane, is rejected with the world, not at dispatch
        low = SimulatorConfig(
            workspace=WorkspaceConfig(center=Vec3(25, 25, 1.2), extent=Vec3(10, 10, 2.0))
        )
        with pytest.raises(ConfigurationError, match="workspace.*trap.octahedron_diameter"):
            TrapWorld.from_config(low)
        half_span = low.trap.octahedron_diameter / 2
        on_bound = WorkspaceConfig(center=Vec3(25, 25, half_span + 1.0), extent=Vec3(10, 10, 2.0))
        with pytest.raises(ConfigurationError, match="workspace"):
            TrapWorld.from_config(dataclasses.replace(low, workspace=on_bound))
        # a floor just above the bound: both holograms exist at its lowest point
        floor = half_span + 1e-6
        above = dataclasses.replace(
            low, workspace=WorkspaceConfig(center=Vec3(25, 25, floor + 1.0), extent=Vec3(10, 10, 2.0))
        )
        TrapWorld.from_config(above)
        lowest = Vec3(25, 25, above.workspace.min_corner.z)
        make_octahedral_hologram(above.array, lowest, above.trap.octahedron_diameter, above.medium)
        make_focus_hologram(above.array, lowest, above.medium)

    def test_cage_needs_a_whole_multiplexing_block(self):
        tiny = SimulatorConfig(array=TransducerArray(rows=1, cols=2))
        with pytest.raises(ConfigurationError, match="trap.octahedron_diameter.*2x3"):
            TrapWorld.from_config(tiny)
        TrapWorld.from_config(dataclasses.replace(tiny, trap=TrapConfig(octahedron_diameter=0.0)))


def _undropped_cameras(scenario: SimScenario, report) -> int:
    """Cameras not dropped over the ticks that acquire, replayed from the
    scenario's dropout stream (spawned child 3, two draws per such tick).
    A tick that finds the particle outside the workspace draws nothing."""
    dropout = np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(5)[3])
    count, state = 0, "acquiring"
    for k, frame in enumerate(report.frames):
        last = k == len(report.frames) - 1
        starved = last and frame.state == "failed" and report.failure_reason == "detection_starvation"
        if state == "acquiring" and not starved:
            count += sum(dropout.uniform() >= scenario.dropout_prob for _ in range(2))
        state = frame.state
    return count


class TestTrackingWindow:
    @pytest.mark.parametrize("sigma", [0.0, 5.0])
    def test_tracked_frames_render_crops(self, monkeypatch, sigma):
        from acoustrap import control

        world = TrapWorld.from_config(SimulatorConfig(vision=VisionConfig(noise_sigma=sigma)))
        renders = []

        def recording_render(camera, particle, seed, window=None):
            renders.append((camera, particle, window))
            return render_frame(camera, particle, seed, window)

        monkeypatch.setattr(control, "render_frame", recording_render)
        scenarios = [SimScenario(particle=falling_particle(), seed=7)] + make_batch_scenarios(
            world.config.workspace, 8, base_seed=5, pixel_noise_sigma=3.0, dropout_prob=0.3, fall_speed=60.0
        )
        reports = [run_trap_loop(s, world) for s in scenarios]
        assert len([f for f in reports[0].frames if f.observed_h is not None]) == 3
        # misses, lost particles and failed attempts
        assert {r.failure_reason for r in reports[1:]} == {"detection_starvation", "target_outside_workspace", "left_fov"}

        # exactly one crop per acquiring tick and undropped camera: the
        # tracking window around the projection, and never a full frame
        expected = sum(_undropped_cameras(s, r) for s, r in zip(scenarios, reports))
        assert len(renders) == expected > 8
        for camera, particle, window in renders:
            d = particle.diameter_um * camera.pixel_scale
            assert window == tracking_window(camera.image_size, project(camera, particle.position), d)
            assert window.c1 - window.c0 <= 64 and window.r1 - window.r0 <= 64


class TestBatches:
    def test_scenarios_deterministic(self, config):
        a = make_batch_scenarios(config.workspace, 5, base_seed=31)
        b = make_batch_scenarios(config.workspace, 5, base_seed=31)
        assert a == b
        c = make_batch_scenarios(config.workspace, 5, base_seed=32)
        assert a != c

    def test_scenario_starts_inside_upper_band(self, config):
        ws = config.workspace
        for s in make_batch_scenarios(ws, 20, base_seed=1):
            p = s.particle.position
            assert ws.contains(p)
            assert p.z > ws.center.z
            assert abs(p.x - ws.center.x) <= ws.extent.x * 0.25
            assert abs(p.y - ws.center.y) <= ws.extent.y * 0.25

    def test_batch_size_validated(self, config):
        with pytest.raises(ConfigurationError):
            make_batch_scenarios(config.workspace, 0, base_seed=1)

    def test_parallel_matches_sequential(self, config, world):
        scenarios = make_batch_scenarios(
            config.workspace, 4, base_seed=99, pixel_noise_sigma=1.0
        )
        seq = run_batch(scenarios, world, jobs=1)
        par = run_batch(scenarios, world, jobs=2)
        assert [r.to_json() for r in seq.reports] == [r.to_json() for r in par.reports]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, config, world, jobs):
        scenarios = make_batch_scenarios(config.workspace, 2, base_seed=1)
        with pytest.raises(ConfigurationError, match="jobs"):
            run_batch(scenarios, world, jobs=jobs)

    @pytest.mark.parametrize(
        "jobs,tasks,cpus,expected",
        [(1, 10, 8, 1), (3, 10, 8, 3), (64, 10, 8, 8), (64, 2, 8, 2), (4, 40, 2, 2)],
    )
    def test_pool_size_clamped_to_tasks_and_cpus(self, jobs, tasks, cpus, expected):
        assert _pool_size(jobs, tasks, cpus) == expected

    def test_result_statistics(self, config, world):
        scenarios = make_batch_scenarios(config.workspace, 3, base_seed=12)
        result = run_batch(scenarios, world)
        assert result.success_rate == 1.0
        devs = result.deviations()
        assert len(devs) == 3 and all(d < 0.05 for d in devs)
        assert result.median_deviation == sorted(devs)[1]
        assert result.mean_time_to_trap is not None

    def test_empty_statistics_are_none(self):
        from acoustrap.control import BatchResult

        empty = BatchResult(reports=[])
        assert empty.success_rate == 0.0
        assert empty.median_deviation is None
        assert empty.mean_deviation is None
        assert empty.mean_time_to_trap is None

    def test_trap_type_tracks_contrast(self, config, world):
        pos = make_batch_scenarios(config.workspace, 3, base_seed=8)
        neg = make_batch_scenarios(
            config.workspace, 3, base_seed=8, contrast=Contrast.NEGATIVE
        )
        for r in run_batch(pos, world).reports:
            assert r.trap_type == "octahedral"
        for r in run_batch(neg, world).reports:
            assert r.trap_type == "focus"

    @pytest.mark.slow
    def test_success_degrades_with_pixel_noise(self, config, world):
        rates = []
        for sigma in (0.0, 1.0, 2.0, 4.0):
            scenarios = make_batch_scenarios(
                config.workspace, 40, base_seed=424242, pixel_noise_sigma=sigma
            )
            rates.append(run_batch(scenarios, world, jobs=4).success_rate)
        # non-increasing, with one small Monte-Carlo inversion allowed
        inversions = [max(0.0, rates[i + 1] - rates[i]) for i in range(3)]
        assert sum(v > 0 for v in inversions) <= 1
        assert max(inversions) <= 0.02
        assert rates[0] > rates[-1]


# sha256 of the newline-joined ``to_json()`` lines of the golden reports;
# any change to a report byte (state names, ordering, float values,
# serializer) changes it. The noise-free pin covers the clean-sensor batch
# and the four runtime failure modes. It was re-recorded once when the
# trap_geometry outcome became a check on the trap world, over the same
# 16 reports as before: no report byte moved.
# The noisy pin covers the same batch at ``vision.noise_sigma=5``; it was
# last re-recorded when each 64 px sensor tile came to draw its noise from
# a stream of its own, which changed every noisy pixel: the observed
# pixels, localizations, trap positions and deviations all moved, and one
# start position, at 0.328 mm against 0.322 mm, left the trap.
NOISE_FREE_DIGEST = "f1ee2f545a5f69997a4fda06a050decf2b6fbd84968209365264157bb546b9a1"
NOISY_DIGEST = "610f96faffc671d8d7c112909092467fc299895cb59e05a972d768c495811986"


def _digest(reports) -> str:
    return hashlib.sha256("\n".join(r.to_json() for r in reports).encode()).hexdigest()


def _batch_reports(vision: VisionConfig) -> list:
    """Six scenarios of each contrast, 1 px jitter and 10% dropout."""
    config = SimulatorConfig(vision=vision)
    world = TrapWorld.from_config(config)
    reports = []
    for contrast in (Contrast.POSITIVE, Contrast.NEGATIVE):
        scenarios = make_batch_scenarios(
            config.workspace,
            6,
            base_seed=2024,
            pixel_noise_sigma=1.0,
            dropout_prob=0.1,
            contrast=contrast,
            timing=config.timing,
        )
        reports += [run_trap_loop(s, world) for s in scenarios]
    return reports


def _failure_mode_reports() -> list:
    """The four TestFailureModes scenarios, one per runtime failure reason."""
    reports = []
    world = TrapWorld.from_config(SimulatorConfig())
    upward = ParticleState(Vec3(25, 25, 54), Vec3(0, 0, 30.0), 400.0, Contrast.POSITIVE)
    reports.append(run_trap_loop(SimScenario(particle=upward, seed=3), world))
    missed = SimScenario(
        particle=falling_particle(Vec3(25, 25, 52)), seed=5, target_override=Vec3(25, 31, 40)
    )
    reports.append(run_trap_loop(missed, world))
    outside = SimScenario(
        particle=falling_particle(), seed=5, target_override=Vec3(25.0, 25.0, 70.0)
    )
    reports.append(run_trap_loop(outside, world))
    short = TrapWorld.from_config(SimulatorConfig(control=ControlConfig(frame_budget=5)))
    reports.append(run_trap_loop(SimScenario(particle=falling_particle(), seed=7), short))
    return reports


def test_noise_free_reports_match_golden_digest():
    reports = _batch_reports(VisionConfig()) + _failure_mode_reports()
    reasons = {r.failure_reason for r in reports}
    assert reasons >= {
        None,
        "detection_starvation",
        "left_fov",
        "target_outside_workspace",
        "frame_budget_exhausted",
    }
    assert len(reports) == 16
    assert _digest(reports) == NOISE_FREE_DIGEST


def test_dispatch_synthesizes_no_hologram(monkeypatch):
    # the world checked the cage geometry when it was built, so the loop
    # reports the same without ever calling a synthesis route
    from acoustrap import control

    def refuse(*args, **kwargs):
        raise AssertionError("the loop synthesized a hologram")

    monkeypatch.setattr(control, "make_focus_hologram", refuse)
    monkeypatch.setattr(control, "make_octahedral_hologram", refuse)
    reports = _batch_reports(VisionConfig()) + _failure_mode_reports()
    assert _digest(reports) == NOISE_FREE_DIGEST


def test_noisy_reports_match_golden_digest():
    reports = _batch_reports(VisionConfig(noise_sigma=5.0))
    assert len(reports) == 12
    assert _digest(reports) == NOISY_DIGEST


@pytest.mark.parametrize("sigma", [0.0, 5.0])
def test_crops_report_as_the_whole_sensor(monkeypatch, sigma):
    # the reference: every crop is the whole sensor, so every crop edge is
    # a sensor edge and window_holds keeps any valid observation
    from acoustrap import control

    vision = VisionConfig(noise_sigma=sigma)
    cropped = [r.to_json() for r in _batch_reports(vision)]
    monkeypatch.setattr(control, "tracking_window", lambda size, centre, d: Window(0, 0, *size))
    assert [r.to_json() for r in _batch_reports(vision)] == cropped


@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_batch_traps_at_any_scale(scale):
    # the sensor size follows the scale, so the calibration anchor stays on it
    config = SimulatorConfig(vision=VisionConfig(scale=scale))
    scenarios = make_batch_scenarios(config.workspace, 6, base_seed=3, timing=config.timing)
    result = run_batch(scenarios, TrapWorld.from_config(config), jobs=1)
    assert [r.outcome for r in result.reports] == ["trapped"] * 6
