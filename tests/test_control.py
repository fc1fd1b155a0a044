import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest

from acoustrap import control
from acoustrap.config import Background, ControlConfig, SimulatorConfig, TrapConfig, VisionConfig, WorkspaceConfig
from acoustrap.control import (
    FrameLog,
    FrameRecord,
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
from acoustrap.vision import (
    KeyedDraws,
    Window,
    background_pixels,
    extract_feature,
    project,
    render_frame,
    tracking_window,
    window_holds,
)


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


class TestScenarioValidation:
    def test_noise_and_dropout_bounds(self):
        with pytest.raises(ConfigurationError):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=-1.0)
        with pytest.raises(ConfigurationError, match="pixel_noise_sigma"):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=float("nan"))
        with pytest.raises(ConfigurationError, match="pixel_noise_sigma"):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=float("inf"))
        with pytest.raises(ConfigurationError, match=r"scenario.pixel_noise_sigma must be within \[0, 2448\]"):
            SimScenario(particle=falling_particle(), pixel_noise_sigma=2448.5)
        assert SimScenario(particle=falling_particle(), pixel_noise_sigma=2448).pixel_noise_sigma == 2448
        with pytest.raises(ConfigurationError):
            SimScenario(particle=falling_particle(), dropout_prob=1.0)

    @pytest.mark.parametrize(
        "start, speed",
        [(Vec3(25.0, 25.0, float("nan")), 10.0), (Vec3(25.0, 25.0, 50.0), 1e308)],
        ids=["nan_position", "overflowing_speed"],
    )
    def test_loop_rejects_a_path_past_the_float_range(self, world, start, speed):
        # a Vec3 does not check itself; the loop checks the path once, up front
        scenario = SimScenario(particle=falling_particle(start, speed))
        with pytest.raises(ConfigurationError, match="control.frame_budget=150.*timing.camera_fps=15.0"):
            run_trap_loop(scenario, world)

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


def _undropped_cameras(scenario: SimScenario, report) -> list[tuple[int, int]]:
    """(tick, camera) of every camera not dropped on a tick that acquires:
    camera c misses tick k when the uniform draw of the key (seed, 2), row
    k, column 4 + c is below the dropout probability. A tick that finds the
    particle outside the workspace observes nothing."""
    draws = KeyedDraws((scenario.seed, 2))
    undropped, state = [], "acquiring"
    for k, frame in enumerate(report.frames):
        last = k == len(report.frames) - 1
        starved = last and frame.state == "failed" and report.failure_reason == "detection_starvation"
        if state == "acquiring" and not starved:
            undropped += [(k, c) for c in range(2) if draws.uniform(k, 4 + c) >= scenario.dropout_prob]
        state = frame.state
    return undropped


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
        expected = sum(len(_undropped_cameras(s, r)) for s, r in zip(scenarios, reports))
        assert len(renders) == expected > 8
        for camera, particle, window in renders:
            d = particle.diameter_um * camera.pixel_scale
            assert window == tracking_window(camera.image_size, project(camera, particle.position), d)
            # one diameter of slack: 2 x (16 + 7) px, plus rounding and the
            # origin's snap to the 3 px stride
            assert window.c1 - window.c0 <= 50 and window.r1 - window.r0 <= 50

    def test_noisy_frames_render_again_from_the_report(self, monkeypatch):
        # tick k's frame on camera c is a function of (seed, 0, k, c), the
        # particle the report logs at tick k and the scenario's particle;
        # the observation the report logs is that frame's extraction plus
        # sigma times the normal draws of the key (seed, 2), row k,
        # columns 2c and 2c + 1
        from acoustrap import control

        world = TrapWorld.from_config(SimulatorConfig(vision=VisionConfig(noise_sigma=5.0)))
        renders = []

        def recording_render(camera, particle, seed, window=None):
            frame = render_frame(camera, particle, seed, window)
            renders.append((camera, window, frame))
            return frame

        monkeypatch.setattr(control, "render_frame", recording_render)
        scenarios = make_batch_scenarios(
            world.config.workspace, 4, base_seed=11, pixel_noise_sigma=1.0, dropout_prob=0.2
        ) + make_batch_scenarios(world.config.workspace, 2, base_seed=12, contrast=Contrast.NEGATIVE)
        checked = held = 0
        for scenario in scenarios:
            renders.clear()
            report = run_trap_loop(scenario, world)
            ticks = _undropped_cameras(scenario, report)
            assert len(renders) == len(ticks) > 0
            p, draws, sigma = scenario.particle, KeyedDraws((scenario.seed, 2)), scenario.pixel_noise_sigma
            for (camera, window, frame), (k, c) in zip(renders, ticks):
                assert camera is world.cameras[c]
                particle = ParticleState(Vec3(*report.frames[k].particle), p.velocity, p.diameter_um, p.contrast)
                again = render_frame(camera, particle, (scenario.seed, 0, k, c), window)
                assert again.origin == frame.origin
                assert np.array_equal(again.pixels, frame.pixels)
                d = p.diameter_um * camera.pixel_scale
                obs = extract_feature(again, background_pixels(camera)[window.slices], d, world.config.vision)
                logged = (report.frames[k].observed_h, report.frames[k].observed_v)[c]
                if window_holds(obs, window, camera.image_size, d):
                    assert logged == (obs.u + sigma * draws.normal(k, 2 * c), obs.v + sigma * draws.normal(k, 2 * c + 1))
                    held += 1
                else:
                    assert logged is None
                checked += 1
        assert checked > 30 and held > 20


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

    def test_scenario_i_is_row_i_of_the_batch_key(self, config):
        # three start uniforms, then the seed from the top 62 bits of the
        # word of column 3; so a batch is the start of any longer one
        ws = config.workspace
        scenarios = make_batch_scenarios(ws, 8, base_seed=31)
        assert make_batch_scenarios(ws, 5, base_seed=31) == scenarios[:5]
        lo = (ws.center.x - ws.extent.x * 0.25, ws.center.y - ws.extent.y * 0.25, ws.center.z + ws.extent.z * 0.10)
        hi = (ws.center.x + ws.extent.x * 0.25, ws.center.y + ws.extent.y * 0.25, ws.center.z + ws.extent.z * 0.27)
        draws = KeyedDraws((31, 1))
        for i, s in enumerate(scenarios):
            p = s.particle.position
            assert (p.x, p.y, p.z) == tuple(a + (b - a) * draws.uniform(i, col) for col, (a, b) in enumerate(zip(lo, hi)))
            assert s.seed == draws.word(i, 3) >> 2 < 2**62
        assert len({s.seed for s in scenarios}) == 8

    def test_negative_base_seed_rejected(self, config):
        with pytest.raises(ConfigurationError, match=r"non-negative integers, got \(-1, 1\)"):
            make_batch_scenarios(config.workspace, 3, base_seed=-1)

    def test_loop_draws_nothing_without_jitter_or_dropout(self, config, world, monkeypatch):
        # at sigma 0 and dropout 0 the loop needs no draw: its reports are
        # the same when every keyed draw fails
        scenarios = make_batch_scenarios(config.workspace, 3, base_seed=5)
        reports = [run_trap_loop(s, world) for s in scenarios]
        assert any(f.observed_h is not None for r in reports for f in r.frames)
        expected = [r.to_json() for r in reports]

        def no_draw(self, row, col):
            raise AssertionError(f"draw ({row}, {col})")

        monkeypatch.setattr(KeyedDraws, "word", no_draw)
        assert [run_trap_loop(s, world).to_json() for s in scenarios] == expected

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


def _pid_after_pause() -> int:
    # long enough that each idle worker takes one of the tasks submitted
    time.sleep(0.2)
    return os.getpid()


def _worker_pids(workers: int) -> set[int]:
    """The pids of the ``workers`` processes of the current pool."""
    pool = control._worker_pool(workers)
    return {f.result(timeout=60) for f in [pool.submit(_pid_after_pause) for _ in range(workers)]}


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie left to an init that does not
    reap counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _within(seconds: float, condition) -> bool:
    """Poll ``condition`` until it holds or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _all_gone(pids) -> bool:
    return _within(5.0, lambda: not any(_alive(pid) for pid in pids))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
class TestWorkerPool:
    """run_batch keeps one worker pool across calls."""

    @pytest.fixture
    def scenarios(self, config):
        return make_batch_scenarios(config.workspace, 4, base_seed=99, pixel_noise_sigma=1.0, dropout_prob=0.05)

    @pytest.fixture
    def serial(self, scenarios, world):
        return [r.to_json() for r in run_batch(scenarios, world, jobs=1).reports]

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        # pool on any machine; the workers never read this
        monkeypatch.setattr(control, "usable_cpus", lambda: 3)

    def test_consecutive_batches_reuse_the_workers(self, scenarios, world, serial):
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=2).reports] == serial
        pool, pids = control._worker_pool(2), _worker_pids(2)
        assert len(pids) == 2
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=2).reports] == serial
        assert control._worker_pool(2) is pool
        assert _worker_pids(2) == pids

    def test_another_worker_count_replaces_the_pool(self, scenarios, world, serial):
        run_batch(scenarios, world, jobs=2)
        old = _worker_pids(2)
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=3).reports] == serial
        assert _all_gone(old)
        new = _worker_pids(3)
        assert len(new) == 3 and not new & old

    def test_killed_worker_is_replaced_by_a_fresh_pool(self, scenarios, world, serial):
        run_batch(scenarios, world, jobs=2)
        pool, pids = control._worker_pool(2), _worker_pids(2)
        victim = min(pids)
        os.kill(victim, signal.SIGKILL)
        # the pool's manager thread reaps the worker after marking the pool broken
        assert _within(5.0, lambda: not os.path.exists(f"/proc/{victim}"))
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=2).reports] == serial
        assert control._worker_pool(2) is not pool
        assert not _worker_pids(2) & pids

    @pytest.mark.parametrize("count,jobs,share", [(5, 2, 3), (7, 3, 3)])
    def test_uneven_shares_return_the_serial_reports(self, config, world, monkeypatch, count, jobs, share):
        # one contiguous share per worker, the last one shorter
        scenarios = make_batch_scenarios(config.workspace, count, base_seed=101, pixel_noise_sigma=1.0, dropout_prob=0.05)
        serial = [r.to_json() for r in run_batch(scenarios, world, jobs=1).reports]
        pool, shares = control._worker_pool(jobs), []
        pool_map = pool.map

        def map_recording_shares(fn, tasks, chunksize):
            shares.append(chunksize)
            return pool_map(fn, tasks, chunksize=chunksize)

        monkeypatch.setattr(pool, "map", map_recording_shares)
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=jobs).reports] == serial
        assert shares == [share]

    def test_worker_error_reaches_the_caller_and_keeps_the_pool(self, scenarios, world, serial):
        run_batch(scenarios, world, jobs=2)
        pool, pids = control._worker_pool(2), _worker_pids(2)
        tiny = TrapWorld.from_config(SimulatorConfig(vision=VisionConfig(scale=0.1)))
        with pytest.raises(ConfigurationError, match="vision.scale=0.1"):
            run_batch(scenarios, tiny, jobs=2)
        assert [r.to_json() for r in run_batch(scenarios, world, jobs=2).reports] == serial
        assert control._worker_pool(2) is pool
        assert _worker_pids(2) == pids


# The child's default start method is forkserver, the default of Python 3.14
# on Linux: the pool forks its workers all the same, and they stay alive
# while the child runs.
_EXIT_SCRIPT = """
import multiprocessing, os, time
from acoustrap import control
from acoustrap.config import SimulatorConfig


def pid_after_pause():
    time.sleep(0.2)
    return os.getpid()


multiprocessing.set_start_method("forkserver")
control.usable_cpus = lambda: 2
config = SimulatorConfig()
scenarios = control.make_batch_scenarios(config.workspace, 2, base_seed=1, timing=config.timing)
control.run_batch(scenarios, control.TrapWorld.from_config(config), jobs=2)
pool = control._worker_pool(2)
print(*{f.result(timeout=60) for f in [pool.submit(pid_after_pause) for _ in range(2)]})
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "ending,returncode",
    [("", 0), ("import signal, sys; sys.stdout.flush(); os.kill(os.getpid(), signal.SIGKILL)", -signal.SIGKILL)],
    ids=["exits", "killed"],
)
def test_pool_workers_end_with_the_interpreter(tmp_path, ending, returncode):
    # the output goes to files: a worker left alive would hold a pipe open
    src = Path(control.__file__).resolve().parents[1]
    out, err = tmp_path / "pids", tmp_path / "stderr"
    with out.open("w") as stdout, err.open("w") as stderr:
        proc = subprocess.run(
            [sys.executable, "-c", _EXIT_SCRIPT + ending],
            stdout=stdout, stderr=stderr, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    assert proc.returncode == returncode, err.read_text()
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    try:
        assert _all_gone(pids)
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


# sha256 of the newline-joined ``to_json()`` lines of the golden reports;
# any change to a report byte (state names, ordering, float values,
# serializer) changes it. The noise-free pin covers the clean-sensor batch
# and the four runtime failure modes. It was re-recorded once when the
# trap_geometry outcome became a check on the trap world, over the same
# 16 reports as before: no report byte moved.
# Both pins, and every TRAFFIC pin, were re-recorded when the pair inverse
# that ``localize`` applies came to be computed in Python floats instead
# of by LAPACK's pinv, whose bits differ between the CPU kernels OpenBLAS
# selects: localizations, trap positions and deviations moved by at most
# 1.5e-14 mm, and no outcome changed (10 of 16 and 10 of 12 trapped). The
# pins now hold on every such kernel.
# The noisy pin covers the same batch at ``vision.noise_sigma=5``; it was
# last re-recorded when each pixel's noise came to be a quantile picked by
# a hash of the frame key and the pixel's sensor row and column, which
# changed every noisy pixel: the observed pixels (frames[].observed_h and
# observed_v), localizations, trap positions and deviations of all 12
# reports moved, and no outcome, failure reason, time or frame count did:
# 10 of 12 trapped before and after.
# Both pins, and every TRAFFIC pin, were last re-recorded when every draw
# of the loop and the batch came to be a keyed draw (``KeyedDraws``):
# the batch starts and scenario seeds, the jitter and the dropouts all
# moved, so every field of every batch report did. The four failure-mode
# reports draw nothing and did not move. 12 of 16 trapped (was 10) and
# 12 of 12 (was 10): the batch's two left_fov failures are gone.
NOISE_FREE_DIGEST = "332ee2a496a3f523b67ab51536336571f1b011b1ab6115e2f58c92de7a814554"
NOISY_DIGEST = "b34d5feb3f3af0cdd5fcf4397199e5b09b1c5535ebcd63f3fa8216a8279702a4"


def _digest(reports) -> str:
    return hashlib.sha256("\n".join(r.to_json() for r in reports).encode()).hexdigest()


def _batch_reports(vision: VisionConfig, n: int = 6, dropout_prob: float = 0.1, base_seed: int = 2024) -> list:
    """``n`` scenarios of each contrast, 1 px jitter and ``dropout_prob``
    dropout (six each and 10% for the golden digests)."""
    config = SimulatorConfig(vision=vision)
    world = TrapWorld.from_config(config)
    reports = []
    for contrast in (Contrast.POSITIVE, Contrast.NEGATIVE):
        scenarios = make_batch_scenarios(
            config.workspace,
            n,
            base_seed=base_seed,
            pixel_noise_sigma=1.0,
            dropout_prob=dropout_prob,
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


def test_loop_computes_no_ellipse_axes(monkeypatch):
    # the loop reads an observation's centre only, so its axes are never
    # computed
    from acoustrap import vision

    def refuse(*args, **kwargs):
        raise AssertionError("the loop computed an observation's axes")

    monkeypatch.setattr(vision, "_axes", refuse)
    assert _digest(_batch_reports(VisionConfig(noise_sigma=5.0))) == NOISY_DIGEST


def test_noisy_reports_match_golden_digest():
    reports = _batch_reports(VisionConfig(noise_sigma=5.0))
    assert len(reports) == 12
    assert _digest(reports) == NOISY_DIGEST


# Traffic pins, one per vision setting that the golden digests leave out:
# sha256 of the reports of ten octahedral and ten focus scenarios, 1 px
# jitter and 5% dropout. The gradient runs at sigma 5, so that its
# binarization sees noise on a sloped background. A change that moves one
# on purpose re-records it once and says which fields moved. The two noisy
# pins were re-recorded with the hashed noise: every report's observed
# pixels, localizations, trap position and deviation moved, no outcome
# did, and 18 of 20 trap in each, as before. All three were last
# re-recorded with the keyed draws, as the golden digests: every field
# of every report moved, and 20 of 20 trap in each (was 18, 18 and 20).
TRAFFIC = {
    "sigma_12": (
        VisionConfig(noise_sigma=12.0),
        "b0425ba08ea1d279966e72acb91910af29e837499e9dab20efd61ac70cc60f10",
    ),
    "gradient": (
        VisionConfig(noise_sigma=5.0, background=Background(kind="gradient", level=170.0, du=25.0, dv=15.0)),
        "623d70c52a14911222dbf7143119bf5d4480c80ed054565f4c6467f583c290be",
    ),
    "scale_0.5": (
        VisionConfig(scale=0.5),
        "c0f2e0e987fc4367e58503e6d8d923e9fd1a05a9686fc52fdeda436d7960ea7a",
    ),
}


@pytest.mark.parametrize("setting", sorted(TRAFFIC))
def test_traffic_reports_match_digest(setting):
    vision, digest = TRAFFIC[setting]
    reports = _batch_reports(vision, n=10, dropout_prob=0.05, base_seed=2026)
    assert len(reports) == 20
    assert _digest(reports) == digest


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


def test_reports_survive_pickle_with_frames_as_one_buffer():
    # reports come back from the pool's workers by pickle: each report as
    # its field tuple, its frames as one buffer, and again without an
    # attribute dict
    reports = _batch_reports(VisionConfig(noise_sigma=5.0)) + _failure_mode_reports()
    data = pickle.dumps(reports)
    assert b"FrameRecord" not in data
    copies = pickle.loads(data)
    assert [r.to_json() for r in copies] == [r.to_json() for r in reports]
    assert copies == reports
    assert [hash(r) for r in copies] == [hash(r) for r in reports]
    assert not any(hasattr(r, "__dict__") or hasattr(r.frames, "__dict__") for r in copies)
    assert [list(r.frames) for r in copies] == [list(r.frames) for r in reports]


class TestFrameLog:
    """A report's frames, packed in one buffer and decoded on reading."""

    @pytest.fixture(scope="class")
    def reports(self):
        return _batch_reports(VisionConfig(noise_sigma=5.0)) + _failure_mode_reports()

    def test_frames_decode_as_the_report_json_writes_them(self, reports):
        for report in reports:
            written = json.loads(report.to_json())["frames"]
            assert len(report.frames) == len(written)
            for k, frame in enumerate(report.frames):
                assert json.loads(json.dumps(dataclasses.asdict(frame))) == written[k]
                assert frame.index == k

    def test_every_optional_field_is_none_somewhere(self, reports):
        frames = [f for r in reports for f in r.frames]
        for name in ("observed_h", "observed_v", "localized", "contained"):
            assert any(getattr(f, name) is None for f in frames), name
            assert any(getattr(f, name) is not None for f in frames), name
        assert {f.contained for f in frames} == {True, False, None}
        assert {f.state for f in frames} == {state.value for state in LoopState}

    def test_indices_slices_and_len(self, noiseless_report):
        frames = noiseless_report.frames
        decoded = list(frames)
        n = len(frames)
        assert n == len(decoded) > 3
        assert frames[-1] == decoded[-1] == frames[n - 1]
        assert frames[-n] == decoded[0]
        assert frames[1:4] == tuple(decoded[1:4])
        assert frames[::-2] == tuple(decoded[::-2])
        assert frames[n:] == ()
        assert [f.index for f in frames[2:]] == list(range(2, n))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                frames[bad]
        with pytest.raises(TypeError):
            frames[1.0]
        assert frames.index(decoded[2]) == 2 and decoded[2] in frames

    def test_packed_values_come_back_as_logged(self):
        values = array("d", [0.5, 1.0, -0.0, 3.25] + [math.nan] * 8)
        values += array("d", [0.25, 4.0, 5.0, 6.0, 1.5, 2.5, -7.0, 8.0, 1e-300, -2.0, 3.0, 0.0])
        values += array("d", [1e300] * 11 + [1.0])
        states = bytearray(control._STATE_CODES[s] for s in (LoopState.ACQUIRING, LoopState.VERIFYING, LoopState.TRAPPED))
        log = FrameLog(values.tobytes() + states)
        assert list(log) == [
            FrameRecord(0, 0.5, "acquiring", (1.0, -0.0, 3.25)),
            FrameRecord(1, 0.25, "verifying", (4.0, 5.0, 6.0), (1.5, 2.5), (-7.0, 8.0), (1e-300, -2.0, 3.0), False),
            FrameRecord(2, 1e300, "trapped", (1e300,) * 3, (1e300,) * 2, (1e300,) * 2, (1e300,) * 3, True),
        ]
        assert math.copysign(1.0, log[0].particle[1]) == -1.0
        assert FrameLog(bytes(log._buffer)) == log
        with pytest.raises(ValueError, match="no whole number of frames"):
            FrameLog(log._buffer[:-1])

    def test_logs_compare_and_hash_by_their_bytes(self, reports):
        # NaN stands for None in the buffer, and equal bytes are equal logs
        copies = pickle.loads(pickle.dumps(reports))
        for report, copy in zip(reports, copies):
            assert copy.frames == report.frames and hash(copy.frames) == hash(report.frames)
            assert copy.frames is not report.frames
        assert reports[0].frames != reports[1].frames
        assert reports[0].frames != list(reports[0].frames)

    def test_pooled_reports_equal_the_serial_ones(self, config, world, monkeypatch):
        # the reports cross the real pool as field tuples and buffers
        monkeypatch.setattr(control, "usable_cpus", lambda: 2)
        scenarios = make_batch_scenarios(config.workspace, 6, base_seed=99, pixel_noise_sigma=1.0, dropout_prob=0.05)
        serial = run_batch(scenarios, world, jobs=1).reports
        pooled = run_batch(scenarios, world, jobs=2).reports
        assert pooled == serial
        assert [hash(r) for r in pooled] == [hash(r) for r in serial]
        assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]

    def test_unpickled_reports_hold_a_bounded_number_of_bytes(self):
        # a pooled batch's reports, as the caller holds them: one buffer of
        # frames each, no per-frame object (about 2.1 KB a report at about
        # 16 frames; frames of boxed floats took about 5.8 KB)
        import tracemalloc

        config = SimulatorConfig(vision=VisionConfig(noise_sigma=5.0))
        world = TrapWorld.from_config(config)
        scenarios = []
        for contrast in (Contrast.POSITIVE, Contrast.NEGATIVE):
            scenarios += make_batch_scenarios(
                config.workspace, 20, base_seed=11, pixel_noise_sigma=1.0, dropout_prob=0.05, contrast=contrast
            )
        data = pickle.dumps([run_trap_loop(s, world) for s in scenarios])
        tracemalloc.start()
        try:
            copies = pickle.loads(data)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(copies) == 40
        assert held / len(copies) < 3000


def test_world_survives_pickle_and_compares_equal():
    # a world goes to the pool's workers by pickle; its cameras are plain
    # numbers that share the configuration's vision settings
    world = TrapWorld.from_config(SimulatorConfig())
    copy = pickle.loads(pickle.dumps(world))
    assert copy == world and hash(copy) == hash(world)
    assert all(cam.vision is copy.config.vision for cam in copy.cameras)
