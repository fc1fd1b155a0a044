"""End-to-end acceptance gates.

Each test prints a single verdict line straight to the terminal (capture
suspended) before asserting, so a full run always shows eleven PASS/FAIL
lines. Expected values for the octahedral-null gate live in
``tests/baselines/trap_quality.json`` with a 10% regression band.
"""

import statistics
import time

import numpy as np
import pytest

from acoustrap.calibration import build_camera_pair, default_calibration, localize
from acoustrap.config import VisionConfig
from acoustrap.core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    Contrast,
    MediumConfig,
    ParticleState,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    wavelength,
)
from acoustrap.control import make_batch_scenarios, run_batch
from acoustrap.field import (
    OctahedralTrap,
    PlaneSpec,
    field_slice,
    gorkov_potential_at_points,
    pressure_at_points,
    trap_quality,
)
from acoustrap.hologram import (
    ib_baseline_hologram,
    make_focus_hologram,
    make_octahedral_hologram,
    octahedron_vertexes,
)
from acoustrap.prediction import TrackSample, predict_position
from acoustrap.vision import (
    background_image,
    extract_feature,
    project,
    render_frame,
)

ARRAY = TransducerArray()
MEDIUM = MediumConfig()
LAM = wavelength(MEDIUM, ARRAY)
CENTER = Vec3(25.0, 25.0, 40.0)


@pytest.fixture
def verdict(capsys):
    def announce(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return announce


def random_workspace_point(rng, ws: WorkspaceConfig) -> Vec3:
    lo, hi = ws.min_corner, ws.max_corner
    return Vec3(
        float(rng.uniform(lo.x, hi.x)),
        float(rng.uniform(lo.y, hi.y)),
        float(rng.uniform(lo.z, hi.z)),
    )


@pytest.fixture(scope="module")
def clean_batch(config, world):
    scenarios = make_batch_scenarios(config.workspace, 100, base_seed=20260815)
    return run_batch(scenarios, world, jobs=4)


@pytest.fixture(scope="module")
def noisy_batch(config, world):
    scenarios = make_batch_scenarios(
        config.workspace, 100, base_seed=20260815, pixel_noise_sigma=1.0, dropout_prob=0.05
    )
    return run_batch(scenarios, world, jobs=4)


def test_criterion_01_half_wavelength_scale(verdict):
    half = LAM / 2.0
    rel = abs(half - 0.330) / 0.330
    ok = abs(half - 0.3261) < 5e-5 and rel < 0.05
    verdict(1, "half-wavelength scale", ok, f"{half:.4f} mm, {rel:.1%} from 0.330 mm")
    assert abs(half - 0.3261) < 5e-5
    assert rel < 0.05


def test_criterion_02_arrival_phase_alignment(config, verdict):
    rng = np.random.default_rng(2)
    centers = ARRAY.element_centers()
    k = 2.0 * np.pi / wavelength(MEDIUM, ARRAY)
    worst = 0.0
    for _ in range(20):
        focus = random_workspace_point(rng, config.workspace)
        holo = make_focus_hologram(ARRAY, focus, MEDIUM)
        d = np.linalg.norm(centers - focus.as_array(), axis=1)
        arrival = np.mod(holo.phases.ravel() - k * d, 2.0 * np.pi)
        residual = np.minimum(arrival, 2.0 * np.pi - arrival)
        worst = max(worst, float(residual.max()))
    ok = worst < 1e-9
    verdict(2, "focal arrival-phase alignment", ok, f"worst residual {worst:.2e} rad")
    assert ok


def test_criterion_03_elliptic_focal_zone(verdict):
    holo = make_focus_hologram(ARRAY, CENTER, MEDIUM)
    res = LAM / 8.0
    extents = {}
    offsets = {}
    for plane, offset, bounds in (
        ("xoy", CENTER.z, ((20.0, 30.0), (20.0, 30.0))),
        ("xoz", CENTER.y, ((20.0, 30.0), (35.0, 45.0))),
    ):
        sl = field_slice(ARRAY, holo, PlaneSpec(plane, offset), bounds, res, MEDIUM)
        mag = sl.magnitude()
        peak = np.unravel_index(int(mag.argmax()), mag.shape)
        offsets[plane] = sl.world_point(*peak).distance_to(CENTER)
        half = float(mag.max()) * 10 ** (-6.0 / 20.0)
        extents[plane] = (
            float((mag[:, peak[1]] >= half).sum()) * res,
            float((mag[peak[0], :] >= half).sum()) * res,
        )
    lateral = max(extents["xoy"])
    axial = extents["xoz"][1]
    ok = max(offsets.values()) <= res and axial > lateral
    verdict(
        3,
        "elliptic focal zone structure",
        ok,
        f"peak offsets {offsets['xoy']:.4f}/{offsets['xoz']:.4f} mm vs cell {res:.4f};"
        f" axial {axial:.2f} mm > lateral {lateral:.2f} mm",
    )
    assert offsets["xoy"] <= res
    assert offsets["xoz"] <= res
    assert axial > lateral


def test_criterion_04_octahedral_null(trap_baseline, verdict):
    span = 2.4
    holo = make_octahedral_hologram(ARRAY, CENTER, span, MEDIUM)
    quality = trap_quality(ARRAY, holo, OctahedralTrap(CENTER, span), MEDIUM)

    offs = np.arange(-2, 3) * (LAM / 10.0)
    grid = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
    center_idx = int(np.argwhere((grid == 0).all(axis=1))[0, 0])
    local_max = []
    for vertex in octahedron_vertexes(CENTER, span):
        mags = np.abs(pressure_at_points(ARRAY, holo, vertex.as_array() + grid, MEDIUM))
        local_max.append(int(np.argmax(mags)) == center_idx)

    null_ok = quality.contrast_ratio < 0.2
    vertex_ok = all(local_max)
    tuned = trap_baseline["default_span"]
    verdict(
        4,
        "octahedral central null",
        null_ok and vertex_ok,
        f"contrast ratio {quality.contrast_ratio:.4f} at {span} mm span (need < 0.2);"
        f" vertex local-max {sum(local_max)}/6;"
        f" tuned span {tuned['diameter_mm']} mm reaches {tuned['contrast_ratio']:.4f}",
    )

    reference = trap_baseline["reference_span"]
    assert reference["diameter_mm"] == span
    assert quality.contrast_ratio == pytest.approx(
        reference["contrast_ratio"], rel=trap_baseline["regression_tolerance"]
    ), "field model drifted from the committed baseline"

    assert quality.contrast_ratio < 0.2, (
        f"no central null at the {span} mm span: contrast ratio "
        f"{quality.contrast_ratio:.4f}; the cage nulls only at tuned spans "
        f"(deepest at {tuned['diameter_mm']} mm with ratio {tuned['contrast_ratio']:.4f})"
    )
    assert vertex_ok, "cage vertexes are not local pressure maxima"


def test_criterion_05_localization_accuracy(config, verdict):
    # the factory calibration's camera pair at native resolution
    cameras = cam_h, cam_v = build_camera_pair(VisionConfig(scale=1.0))
    rng = np.random.default_rng(42)
    exact = []
    noisy_um = []
    for _ in range(1000):
        p = random_workspace_point(rng, config.workspace)
        pix = np.array(project(cam_h, p) + project(cam_v, p))
        got = localize(cameras, (pix[0], pix[1]), (pix[2], pix[3]))
        exact.append(got.distance_to(p))
        jitter = pix + rng.uniform(-1.0, 1.0, size=4)
        got = localize(cameras, (jitter[0], jitter[1]), (jitter[2], jitter[3]))
        noisy_um.append(got.distance_to(p) * 1e3)
    worst = float(np.max(exact))
    rms = float(np.sqrt(np.mean(np.square(noisy_um))))
    ok = worst < 1e-9 and rms < 100.0
    verdict(
        5,
        "stereo localization accuracy",
        ok,
        f"round-trip max {worst:.2e} mm; RMS under 1 px uniform noise {rms:.1f} um",
    )
    assert worst < 1e-9
    assert rms < 100.0


def test_criterion_06_prediction_exactness(verdict):
    timing = TimingConfig()
    fixture = [
        TrackSample(Vec3(0.0, 0.0, 0.0), 0.0),
        TrackSample(Vec3(1.0, 0.0, 0.0), 0.1),
        TrackSample(Vec3(2.0, 0.0, 0.0), 0.2),
    ]
    result = predict_position(fixture, timing)
    fixture_err = result.predicted.distance_to(Vec3(3.5, 0.0, 0.0))

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        p0 = Vec3(*(float(v) for v in rng.uniform(-50.0, 50.0, 3)))
        vel = Vec3(*(float(v) for v in rng.uniform(-30.0, 30.0, 3)))
        times = [0.0, 1.0 / 15.0, 2.0 / 15.0]
        samples = [TrackSample(p0 + vel * t, t) for t in times]
        predicted = predict_position(samples, timing).predicted
        truth = p0 + vel * (times[-1] + timing.horizon)
        worst = max(worst, predicted.distance_to(truth))
    ok = fixture_err < 1e-12 and worst < 1e-9
    verdict(
        6,
        "motion prediction exactness",
        ok,
        f"fixture error {fixture_err:.1e} mm; worst of 1000 linear tracks {worst:.1e} mm",
    )
    assert fixture_err < 1e-12
    assert worst < 1e-9


def test_criterion_07_closed_loop_success(clean_batch, noisy_batch, verdict):
    clean = clean_batch.success_rate
    noisy = noisy_batch.success_rate
    ok = clean == 1.0 and noisy >= 0.80
    verdict(
        7,
        "closed-loop success rate",
        ok,
        f"noiseless {clean:.0%} (need 100%); 1 px noise + 5% dropouts {noisy:.0%} (need >= 80%)",
    )
    assert clean == 1.0
    assert noisy >= 0.80


def test_criterion_08_deviation_scale(noisy_batch, verdict):
    median = noisy_batch.median_deviation
    ok = median is not None and median <= 0.33
    verdict(
        8,
        "trapping deviation scale",
        ok,
        f"median deviation of noisy successes {median:.3f} mm (need <= 0.33)",
    )
    assert ok


def test_criterion_09_feature_extraction(config, cameras, verdict):
    cam_h, _ = cameras
    background = background_image(cam_h)
    d_px = 400.0 * cam_h.pixel_scale

    worst = 0.0
    for dx in np.linspace(-2.0, 2.0, 9):
        for dy in np.linspace(-2.0, 2.0, 9):
            pos = Vec3(25.0 + dx * 0.1, 25.0 + dy * 0.1, 40.0 + dx * 0.05)
            state = ParticleState(position=pos)
            frame = render_frame(cam_h, state, seed=0)
            obs = extract_feature(frame, background, d_px, config.vision)
            assert obs.valid
            u, v = project(cam_h, pos)
            worst = max(worst, float(np.hypot(obs.u - u, obs.v - v)))

    import dataclasses

    noisy_cam = dataclasses.replace(cam_h, vision=dataclasses.replace(cam_h.vision, noise_sigma=5.0))
    rng = np.random.default_rng(1234)
    good = 0
    for k in range(500):
        pos = Vec3(
            25.0 + float(rng.uniform(-3, 3)) * 0.2,
            25.0 + float(rng.uniform(-3, 3)) * 0.2,
            40.0,
        )
        state = ParticleState(position=pos)
        frame = render_frame(noisy_cam, state, seed=k)
        obs = extract_feature(frame, background, d_px, config.vision)
        if not obs.valid:
            continue
        u, v = project(noisy_cam, pos)
        if float(np.hypot(obs.u - u, obs.v - v)) <= 2.0:
            good += 1
    frac = good / 500.0

    jacobian, _ = default_calibration()
    dominant = np.max(np.abs(jacobian.matrix), axis=1)
    scale_rel = abs(float(np.mean(dominant)) - 25.0 / 400.0) / (25.0 / 400.0)

    ok = worst <= 0.5 and frac >= 0.99 and scale_rel < 0.01
    verdict(
        9,
        "feature extraction accuracy",
        ok,
        f"noise-free worst {worst:.2f} px (need <= 0.5);"
        f" sigma=5 within 2 px {frac:.1%} (need >= 99%);"
        f" pixel-scale mismatch {scale_rel:.2%} (need < 1%)",
    )
    assert worst <= 0.5
    assert frac >= 0.99
    assert scale_rel < 0.01


def test_criterion_10_synthesis_latency(verdict):
    def median_ms(fn, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * 1e3)
        return float(statistics.median(times))

    diameter = DEFAULT_OCTAHEDRON_DIAMETER
    octa_ms = median_ms(
        lambda: make_octahedral_hologram(ARRAY, CENTER, diameter, MEDIUM), 21
    )
    targets = list(octahedron_vertexes(CENTER, diameter))
    ib_ms = median_ms(lambda: ib_baseline_hologram(ARRAY, targets, MEDIUM, 200), 3)
    ratio = ib_ms / octa_ms
    ok = octa_ms < 10.0 and ratio >= 10.0
    verdict(
        10,
        "hologram synthesis latency",
        ok,
        f"multiplexed {octa_ms:.2f} ms (need < 10); iterative 200 it {ib_ms:.1f} ms,"
        f" {ratio:.0f}x slower (need >= 10x)",
    )
    assert octa_ms < 10.0
    assert ratio >= 10.0


def test_criterion_11_potential_minima(config, verdict):
    tol = LAM / 4.0

    focus_holo = make_focus_hologram(ARRAY, CENTER, MEDIUM)
    z = np.arange(CENTER.z - 2.0, CENTER.z + 2.0 + 1e-9, LAM / 20.0)
    line = np.column_stack([np.full_like(z, CENTER.x), np.full_like(z, CENTER.y), z])
    sinker = ParticleState(position=CENTER, diameter_um=300.0, contrast=Contrast.NEGATIVE)
    u_line = gorkov_potential_at_points(ARRAY, focus_holo, line, MEDIUM, sinker)
    neg_offset = abs(float(z[int(np.argmin(u_line))]) - CENTER.z)

    octa_holo = make_octahedral_hologram(ARRAY, CENTER, DEFAULT_OCTAHEDRON_DIAMETER, MEDIUM)
    offs = np.arange(-4, 5) * (LAM / 10.0)
    grid = CENTER.as_array() + np.stack(
        np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    floater = ParticleState(position=CENTER, diameter_um=300.0, contrast=Contrast.POSITIVE)
    u_grid = gorkov_potential_at_points(ARRAY, octa_holo, grid, MEDIUM, floater)
    pos_offset = float(np.linalg.norm(grid[int(np.argmin(u_grid))] - CENTER.as_array()))

    ok = neg_offset <= tol and pos_offset <= tol
    verdict(
        11,
        "potential minima at trap sites",
        ok,
        f"negative-contrast minimum {neg_offset:.3f} mm off focus,"
        f" positive-contrast minimum {pos_offset:.3f} mm off cage center"
        f" (need <= {tol:.3f})",
    )
    assert neg_offset <= tol
    assert pos_offset <= tol
