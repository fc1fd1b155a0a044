import dataclasses
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from acoustrap import control
from acoustrap.config import Background, ControlConfig, SimulatorConfig, TrapConfig, VisionConfig, WorkspaceConfig
from acoustrap.control import (
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
    """(tick, camera) of every camera not dropped on a tick that acquires,
    replayed from the scenario's dropout stream (keyed (seed, 3), two draws
    per such tick). A tick that finds the particle outside the workspace
    draws nothing."""
    dropout = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(3,)))
    undropped, state = [], "acquiring"
    for k, frame in enumerate(report.frames):
        last = k == len(report.frames) - 1
        starved = last and frame.state == "failed" and report.failure_reason == "detection_starvation"
        if state == "acquiring" and not starved:
            undropped += [(k, c) for c in range(2) if dropout.uniform() >= scenario.dropout_prob]
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
        # particle the report logs at tick k and the scenario's particle
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
        checked = 0
        for scenario in scenarios:
            renders.clear()
            report = run_trap_loop(scenario, world)
            ticks = _undropped_cameras(scenario, report)
            assert len(renders) == len(ticks) > 0
            p = scenario.particle
            for (camera, window, frame), (k, c) in zip(renders, ticks):
                assert camera is world.cameras[c]
                particle = ParticleState(Vec3(*report.frames[k].particle), p.velocity, p.diameter_um, p.contrast)
                again = render_frame(camera, particle, (scenario.seed, 0, k, c), window)
                assert again.origin == frame.origin
                assert np.array_equal(again.pixels, frame.pixels)
                checked += 1
        assert checked > 30


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
NOISE_FREE_DIGEST = "02581a493ff4d70b0dbd89f68315573a10bf89caa87d9c64138782c76aada90a"
NOISY_DIGEST = "406c4dce4f1b6201a6bedc8a528f622c855270cba41164272ac205c4022cd19c"


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
# pins were last re-recorded with the hashed noise: every report's observed
# pixels, localizations, trap position and deviation moved, no outcome
# did, and 18 of 20 trap in each, as before.
TRAFFIC = {
    "sigma_12": (
        VisionConfig(noise_sigma=12.0),
        "1c918974e21d6a708caf9e89454c3c53a5e554671f95c9e89de40465a88a7b77",
    ),
    "gradient": (
        VisionConfig(noise_sigma=5.0, background=Background(kind="gradient", level=170.0, du=25.0, dv=15.0)),
        "d1cb42078b9a09f4bc7ae331dd217fbb81ff3e7c0ba111c9da6efbbb707f058e",
    ),
    "scale_0.5": (
        VisionConfig(scale=0.5),
        "dd905cf56455eaf534381b0ed23c926ea676f67f18fca317d590e2b97d7e6ab5",
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


def test_reports_survive_pickle_with_frames_as_field_tuples():
    # reports come back from the pool's workers by pickle: each frame as
    # the tuple of its fields, which may be None, and again without an
    # attribute dict
    reports = _batch_reports(VisionConfig(noise_sigma=5.0)) + _failure_mode_reports()
    copies = pickle.loads(pickle.dumps(reports))
    assert [r.to_json() for r in copies] == [r.to_json() for r in reports]
    frames = [f for r in copies for f in r.frames]
    assert frames == [f for r in reports for f in r.frames]
    assert not any(hasattr(f, "__dict__") for f in frames)
    for name in FrameRecord.__slots__:
        if name not in ("index", "t", "state", "particle"):
            assert any(getattr(f, name) is None for f in frames), name
    frame = frames[-1]
    assert frame.__reduce_ex__(pickle.DEFAULT_PROTOCOL) == (FrameRecord, tuple(getattr(frame, n) for n in FrameRecord.__slots__))


def test_world_survives_pickle_and_compares_equal():
    # a world goes to the pool's workers by pickle; its cameras are plain
    # numbers that share the configuration's vision settings
    world = TrapWorld.from_config(SimulatorConfig())
    copy = pickle.loads(pickle.dumps(world))
    assert copy == world and hash(copy) == hash(world)
    assert all(cam.vision is copy.config.vision for cam in copy.cameras)
