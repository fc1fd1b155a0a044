import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from acoustrap.calibration import build_camera_pair
from acoustrap.config import Background, SimulatorConfig, VisionConfig
from acoustrap.core import ParticleState, Vec3
from acoustrap.errors import ConfigurationError
from acoustrap.vision import (
    _TILE,
    ImageFrame,
    Window,
    _area_floor,
    _axes,
    _BAND,
    _best_window,
    _binarize,
    _binarize_window,
    _close3,
    _largest_blob,
    _patch_half,
    _sensor_noise,
    _stride,
    _window_sums,
    background_image,
    background_pixels,
    extract_feature,
    project,
    render_frame,
    tracking_window,
    window_holds,
)

CFG = SimulatorConfig()
CAM_H, CAM_V = build_camera_pair(CFG.vision)
CENTER = Vec3(25.0, 25.0, 40.0)
STATE = ParticleState(position=CENTER)
D_PX = STATE.diameter_um * CAM_H.pixel_scale


@pytest.fixture(scope="module")
def bg():
    return background_image(CAM_H)


class TestProjection:
    def test_reference_world_maps_to_reference_pixel(self):
        u, v = project(CAM_H, CAM_H.ref_world)
        assert (u, v) == pytest.approx(tuple(CAM_H.ref_pixel))

    def test_projection_is_affine_in_world_displacement(self):
        u0, v0 = project(CAM_H, CENTER)
        u1, v1 = project(CAM_H, CENTER + Vec3(0.0, 1.0, 0.0))
        du_um = CAM_H.rows_of_j @ np.array([0.0, 1000.0, 0.0])
        assert (u1 - u0, v1 - v0) == pytest.approx(tuple(du_um))

    def test_pixel_scale_halves_with_scale(self):
        full_h, _ = build_camera_pair(VisionConfig(scale=1.0))
        assert CAM_H.pixel_scale == pytest.approx(full_h.pixel_scale * 0.25)

    def test_disc_size_at_native_resolution(self):
        full_h, full_v = build_camera_pair(VisionConfig(scale=1.0))
        assert 400.0 * full_h.pixel_scale == pytest.approx(25.0, abs=0.5)
        assert 400.0 * full_v.pixel_scale == pytest.approx(25.0, abs=0.5)


class TestRenderFrame:
    def test_deterministic_given_seed(self):
        cam = dataclasses.replace(CAM_H, noise_sigma=3.0)
        a = render_frame(cam, STATE, seed=42)
        b = render_frame(cam, STATE, seed=42)
        c = render_frame(cam, STATE, seed=43)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_frame_is_readonly_uint8(self):
        frame = render_frame(CAM_H, STATE, seed=0)
        assert frame.pixels.dtype == np.uint8
        with pytest.raises(ValueError):
            frame.pixels[0, 0] = 0

    def test_disc_darkens_projected_center(self, bg):
        frame = render_frame(CAM_H, STATE, seed=0)
        u, v = project(CAM_H, CENTER)
        assert frame.pixels[int(round(v)), int(round(u))] == pytest.approx(
            CAM_H.particle_level, abs=1.0
        )
        # background untouched away from the disc
        assert frame.pixels[5, 5] == bg[5, 5]

    def test_disc_crossing_border_renders_partially(self, bg):
        # centre on the last column: the sensor shows the part of the disc
        # that a sensor 20 px wider shows on the same columns
        w, h = CAM_H.image_size
        particle = _particle_at(CAM_H, (w - 1.0, h / 2))
        frame = render_frame(CAM_H, particle, seed=0)
        wider = render_frame(dataclasses.replace(CAM_H, image_size=(w + 20, h)), particle, seed=0)
        assert np.array_equal(frame.pixels, wider.pixels[:, :w])
        assert np.sum(frame.pixels[:, -1] < bg[:, -1] - 1.0) >= 5
        assert np.sum(wider.pixels[:, w:] < bg[0, 0] - 1.0) >= 5

    def test_noise_free_render_matches_float_image(self):
        # a frame rounds its float image once; the reference builds that
        # image over the whole sensor, disc coverage included
        cam = dataclasses.replace(
            CAM_H, background=Background(kind="gradient", level=240.0, du=40.0, dv=-30.0)
        )
        w, h = cam.image_size
        for pos in (CENTER, CENTER + Vec3(0.13, -0.21, 0.05), CENTER + Vec3(0.0, -19.2, 0.0)):
            frame = render_frame(cam, ParticleState(position=pos), seed=0)
            u0, v0 = project(cam, pos)
            vv, uu = np.mgrid[0:h, 0:w].astype(float)
            coverage = np.clip(D_PX / 2.0 - np.hypot(uu - u0, vv - v0) + 0.5, 0.0, 1.0)
            img = background_image(cam) * (1.0 - coverage) + cam.particle_level * coverage
            assert np.array_equal(frame.pixels, np.clip(np.rint(img), 0, 255).astype(np.uint8))

    def test_gradient_background(self):
        cam = dataclasses.replace(
            CAM_H, background=Background(kind="gradient", level=150.0, du=30.0, dv=-20.0)
        )
        bg = background_image(cam)
        assert bg[0, -1] - bg[0, 0] == pytest.approx(30.0, abs=1.0)
        assert bg[-1, 0] - bg[0, 0] == pytest.approx(-20.0, abs=1.0)


class TestExtractFeature:
    def test_noise_free_centroid_subpixel(self, bg):
        worst = 0.0
        for dx, dy in [(-0.21, 0.13), (0.0, 0.0), (0.17, -0.29), (0.08, 0.31)]:
            pos = CENTER + Vec3(dx, dy, dx / 2)
            frame = render_frame(CAM_H, ParticleState(position=pos), seed=0)
            obs = extract_feature(frame, bg, D_PX, CFG.vision)
            assert obs.valid, obs.reason
            u, v = project(CAM_H, pos)
            worst = max(worst, float(np.hypot(obs.u - u, obs.v - v)))
        assert worst <= 0.5

    def test_axes_match_disc_diameter(self, bg):
        frame = render_frame(CAM_H, STATE, seed=3)
        obs = extract_feature(frame, bg, D_PX, CFG.vision)
        assert obs.valid
        assert obs.major_px == pytest.approx(D_PX, rel=0.10)
        assert obs.minor_px == pytest.approx(D_PX, rel=0.10)
        assert obs.major_px >= obs.minor_px

    def test_deterministic_given_seed(self, bg):
        cam = dataclasses.replace(CAM_H, noise_sigma=5.0)
        frame = render_frame(cam, STATE, seed=9)
        a = extract_feature(frame, bg, D_PX, CFG.vision)
        b = extract_feature(frame, bg, D_PX, CFG.vision)
        assert (a.u, a.v, a.major_px, a.minor_px) == (b.u, b.v, b.major_px, b.minor_px)

    def test_blank_frame_reports_no_candidate(self, bg):
        blank = ImageFrame(bg.astype(np.uint8))
        obs = extract_feature(blank, bg, D_PX, CFG.vision)
        assert not obs.valid
        assert obs.reason == "no_candidate_window"
        assert np.isnan(obs.u) and np.isnan(obs.v)

    def test_zero_contrast_blob_is_invalid(self, bg):
        # a negative offset binarizes the whole blank frame as foreground
        blank = ImageFrame(bg.astype(np.uint8))
        loose = dataclasses.replace(CFG.vision, binarize_offset=-5.0)
        obs = extract_feature(blank, bg, D_PX, loose)
        assert not obs.valid
        assert obs.reason == "blob_too_small"

    def test_tiny_expected_diameter_rejected(self, bg):
        frame = render_frame(CAM_H, STATE, seed=0)
        with pytest.raises(ConfigurationError):
            extract_feature(frame, bg, 3.0, CFG.vision)

    def test_shape_mismatch_rejected(self, bg):
        frame = render_frame(CAM_H, STATE, seed=0)
        with pytest.raises(ConfigurationError):
            extract_feature(frame, bg[:-1, :], D_PX, CFG.vision)

    def test_survives_gradient_background_and_noise(self):
        cam = dataclasses.replace(
            CAM_H,
            noise_sigma=5.0,
            background=Background(kind="gradient", level=170.0, du=25.0, dv=15.0),
        )
        bg = background_image(cam)
        for k in range(5):
            pos = CENTER + Vec3(0.11 * k - 0.2, 0.07 * k, 0.0)
            frame = render_frame(cam, ParticleState(position=pos), seed=100 + k)
            obs = extract_feature(frame, bg, D_PX, CFG.vision)
            assert obs.valid, obs.reason
            u, v = project(cam, pos)
            assert np.hypot(obs.u - u, obs.v - v) <= 2.0

    @pytest.mark.parametrize("du", [40000.0, 1e300])
    def test_background_past_white_is_clipped(self, du):
        # a background past 255 gray levels used to wrap round in int16, or
        # fail the cast, and hide a particle the sensor records against white
        cam = dataclasses.replace(CAM_H, background=Background(kind="gradient", level=200.0, du=du))
        frame = render_frame(cam, STATE, seed=0)
        obs = extract_feature(frame, background_image(cam), D_PX, CFG.vision)
        assert obs.valid, obs.reason
        assert math.dist((obs.u, obs.v), project(cam, CENTER)) <= 0.2

    def test_tilted_ellipse_axes_and_order(self):
        # 28 x 16 px ellipse tilted by 30 degrees, anti-aliased by 8x8
        # supersampling of each pixel's coverage
        major, minor, tilt = 28.0, 16.0, np.deg2rad(30.0)
        u0, v0 = 63.37, 58.81
        sub = (np.arange(8) + 0.5) / 8 - 0.5
        fine = (np.arange(128)[:, None] + sub[None, :]).ravel()
        du = fine[None, :] - u0
        dv = fine[:, None] - v0
        a = du * np.cos(tilt) + dv * np.sin(tilt)
        b = -du * np.sin(tilt) + dv * np.cos(tilt)
        inside = (a / (major / 2)) ** 2 + (b / (minor / 2)) ** 2 <= 1.0
        coverage = inside.reshape(128, 8, 128, 8).mean(axis=(1, 3))
        bg = np.full((128, 128), 180.0)
        pixels = np.rint(bg * (1.0 - coverage) + 40.0 * coverage).astype(np.uint8)

        obs = extract_feature(ImageFrame(pixels), bg, np.sqrt(major * minor), CFG.vision)
        assert obs.valid, obs.reason
        assert obs.major_px >= obs.minor_px
        assert obs.major_px == pytest.approx(major, rel=0.05)
        assert obs.minor_px == pytest.approx(minor, rel=0.05)
        assert np.hypot(obs.u - u0, obs.v - v0) <= 0.2


# Windowed extraction is checked against the full frame on a small sensor,
# so that 200 full-frame extractions per case stay fast. The camera scale
# and particle size are the default ones; the sides (158 x 131 px) are not
# multiples of the 4 px search block or the 3 px window stride, nor is the
# height one of the 16-row noise band, so crops clamped at every sensor
# edge, the noise band cut by the sensor edge and the unsearched border
# are exercised.
SMALL = (158, 131)


def _particle_at(cam, uv):
    """A particle whose projection on ``cam`` is the sensor pixel ``uv``."""
    delta_um = np.linalg.pinv(cam.rows_of_j) @ (np.asarray(uv) - cam.ref_pixel)
    return ParticleState(position=cam.ref_world + Vec3.from_array(delta_um / 1e3))


@pytest.mark.parametrize("sigma", [0.0, 5.0])
@pytest.mark.parametrize("index", [0, 1], ids=["camera_h", "camera_v"])
def test_windowed_extraction_matches_full_frame(sigma, index):
    cam = dataclasses.replace(CAM_V if index else CAM_H, image_size=SMALL, noise_sigma=sigma)
    bg = background_image(cam)
    w, h = cam.image_size
    d = STATE.diameter_um * cam.pixel_scale
    rng = np.random.default_rng(7 + index)
    held = 0
    for k in range(200):
        # centres from just outside one sensor edge to just outside the other
        uv = rng.uniform([-4.0, -4.0], [w + 3.0, h + 3.0])
        particle = _particle_at(cam, uv)
        full = render_frame(cam, particle, seed=k)
        ref = extract_feature(full, bg, d, CFG.vision)
        # a prediction off by up to one diameter on each axis
        window = tracking_window(cam.image_size, tuple(uv + rng.uniform(-1, 1, 2) * math.ceil(d)), d)
        hit = tracking_window(cam.image_size, project(cam, particle.position), d)
        for win in (window, hit):
            crop = render_frame(cam, particle, seed=k, window=win)
            assert np.array_equal(crop.pixels, full.pixels[win.slices])
            assert crop.origin == (win.c0, win.r0)
            obs = extract_feature(crop, bg[win.slices], d, CFG.vision)
            holds = window_holds(obs, win, cam.image_size, d)
            assert holds or not ref.valid, (k, uv, obs)
            if sigma == 0:
                assert holds == ref.valid
            # Noisy crops too: exact box sums leave no binarization tie to
            # flip near the crop edge. At much higher noise the full frame
            # may pick a noise patch elsewhere, which this noise never does
            # on these seeds.
            if holds:
                assert (obs.u, obs.v, obs.major_px, obs.minor_px) == (
                    ref.u, ref.v, ref.major_px, ref.minor_px
                )
            held += holds
    assert held >= 2 * 180  # most centres lie on the sensor


@pytest.mark.parametrize("sigma", [2.0, 5.0, 12.0])
def test_crop_binarizes_as_full_frame(sigma):
    # Box sums are exact, so a pixel half a binarization window inside the
    # crop edges sees the same box, and the same verdict, as in the full
    # frame.
    cam = dataclasses.replace(CAM_H, noise_sigma=sigma)
    bg = np.rint(background_image(cam)).astype(np.int16)
    offset = CFG.vision.binarize_offset
    r = _binarize_window(D_PX) // 2
    w, h = cam.image_size
    rng = np.random.default_rng(int(sigma))
    for k in range(6):
        particle = _particle_at(cam, rng.uniform([0.0, 0.0], [w, h]))
        diff = np.abs(render_frame(cam, particle, seed=k).pixels.astype(np.int16) - bg)
        fg = _binarize(diff, D_PX, offset)
        for centre in rng.uniform([0.0, 0.0], [w, h], size=(40, 2)):
            win = tracking_window(cam.image_size, tuple(centre), D_PX)
            crop = _binarize(diff[win.slices], D_PX, offset)
            inner = slice(win.r0 + r, win.r1 - r), slice(win.c0 + r, win.c1 - r)
            assert np.array_equal(crop[r:-r, r:-r], fg[inner]), (k, win)


def _off_sensor(rng, w, h):
    """A pixel 1 to 20 px beyond a random edge of a w x h sensor."""
    t, out = rng.uniform(0.0, 1.0), rng.uniform(1.0, 20.0)
    return [(-out, t * h), (w + out, t * h), (t * w, -out), (t * w, h + out)][rng.integers(4)]


@pytest.mark.parametrize("sigma", [8.0, 12.0])
def test_noise_patch_is_not_a_particle(sigma):
    # with the binarization offset of 10 gray levels, a noise patch passed
    # as a particle in about 50 of 60 such frames at sigma 8 and 60 of 60 at 12
    cam = dataclasses.replace(CAM_H, noise_sigma=sigma)
    vision = dataclasses.replace(CFG.vision, noise_sigma=sigma)
    bg = background_image(cam)
    w, h = cam.image_size
    rng = np.random.default_rng(int(sigma))
    for seed in range(12):
        off = _particle_at(cam, _off_sensor(rng, w, h))
        assert not extract_feature(render_frame(cam, off, seed), bg, D_PX, vision).valid
        uv = rng.uniform([40.0, 40.0], [w - 40.0, h - 40.0])
        obs = extract_feature(render_frame(cam, _particle_at(cam, uv), seed + 100), bg, D_PX, vision)
        assert obs.valid and math.hypot(obs.u - uv[0], obs.v - uv[1]) < 0.5


@pytest.mark.parametrize("sigma", [2.0, 5.0])
def test_offset_floor_leaves_low_noise_alone(sigma):
    # 2 sigma stays at or below the offset of 10, so extraction is what it
    # was without the floor (config noise_sigma 0), and the digests hold
    cam = dataclasses.replace(CAM_H, noise_sigma=sigma)
    floored = dataclasses.replace(CFG.vision, noise_sigma=sigma)
    bg = background_image(cam)
    w, h = cam.image_size
    rng = np.random.default_rng(int(sigma))
    for seed in range(6):
        for uv in (_off_sensor(rng, w, h), rng.uniform([0.0, 0.0], [w, h])):
            frame = render_frame(cam, _particle_at(cam, uv), seed)
            a = extract_feature(frame, bg, D_PX, floored)
            b = extract_feature(frame, bg, D_PX, CFG.vision)
            assert a == b or (not a.valid and a.reason == b.reason)


class TestWindows:
    def test_partial_disc_in_corner_crop(self):
        w, h = CAM_H.image_size
        corner = Window(w - 40, h - 40, w, h)
        particle = _particle_at(CAM_H, (w - 1.0, h - 1.0))
        crop = render_frame(CAM_H, particle, seed=0, window=corner)
        full = render_frame(CAM_H, particle, seed=0)
        assert np.array_equal(crop.pixels, full.pixels[corner.slices])
        assert crop.pixels[-1, -1] == pytest.approx(CAM_H.particle_level, abs=1.0)
        assert crop.pixels[-5, -1] > crop.pixels[-1, -1]

    def test_window_must_fit_sensor(self):
        w, h = CAM_H.image_size
        for window in (Window(-1, 0, 10, 10), Window(0, 0, w + 1, 10), Window(5, 5, 5, 10)):
            with pytest.raises(ConfigurationError, match="window"):
                render_frame(CAM_H, STATE, seed=0, window=window)

    def test_window_origin_snaps_to_stride(self):
        w, h = CAM_H.image_size
        for centre in ((100.3, 200.7), (7.0, 9.0), (w - 2.0, h - 2.0)):
            window = tracking_window(CAM_H.image_size, centre, D_PX)
            assert window.c0 % 3 == 0 and window.r0 % 3 == 0
            assert 0 <= window.c0 < window.c1 <= w and 0 <= window.r0 < window.r1 <= h
        assert tracking_window(CAM_H.image_size, (-500.0, 10.0), D_PX) is None
        assert tracking_window(CAM_H.image_size, (float("nan"), 10.0), D_PX) is None

    def test_background_is_shared_and_readonly(self):
        bg = background_image(CAM_H)
        assert background_image(CAM_V) is bg
        with pytest.raises(ValueError):
            bg[0, 0] = 0
        render_frame(CAM_H, STATE, seed=0)
        assert np.all(bg == CFG.vision.background.level)


# Plain-Python definitions of the extraction kernels. The numpy kernels must
# match them bit for bit.


def _binarize_reference(diff, expected_diameter_px, offset):
    """A pixel is foreground when it exceeds, by more than ``offset``, the
    exact mean of the n x n box around it, edges replicated."""
    n = _binarize_window(expected_diameter_px)
    r = n // 2
    h, w = len(diff), len(diff[0])

    def at(i, j):
        return int(diff[min(max(i, 0), h - 1)][min(max(j, 0), w - 1)])

    fg = []
    for i in range(h):
        row = []
        for j in range(w):
            total = sum(at(i + di, j + dj) for di in range(-r, r + 1) for dj in range(-r, r + 1))
            row.append(Fraction(int(diff[i][j])) > Fraction(total, n * n) + Fraction(offset))
        fg.append(row)
    return np.array(fg, dtype=bool)


def _best_window_reference(fg, expected_diameter_px, min_fraction):
    """Count the foreground of every candidate window one pixel at a time;
    the raster-first densest wins, None below the area floor."""
    h, w = len(fg), len(fg[0])
    size = min(max(_patch_half(expected_diameter_px), 3), h, w)
    stride = _stride(expected_diameter_px)
    best = None
    for r0 in sorted(set(range(0, h - size + 1, stride)) | {h - size}):
        for c0 in sorted(set(range(0, w - size + 1, stride)) | {w - size}):
            count = sum(bool(fg[r0 + i][c0 + j]) for i in range(size) for j in range(size))
            if best is None or count > best[0]:
                best = (count, r0, c0)
    if best[0] < _area_floor(expected_diameter_px, min_fraction):
        return None
    return best[1], best[2], size


def _close3_reference(mask):
    """3x3 dilation, then 3x3 erosion, with zeros outside the patch."""
    h, w = len(mask), len(mask[0])

    def at(img, i, j):
        return 0 <= i < h and 0 <= j < w and bool(img[i][j])

    def neighbourhood(img, i, j):
        return [at(img, i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]

    dilated = [[any(neighbourhood(mask, i, j)) for j in range(w)] for i in range(h)]
    return np.array([[all(neighbourhood(dilated, i, j)) for j in range(w)] for i in range(h)])


def _largest_blob_reference(mask):
    """Flood fill numbering 8-connected labels in raster order; the largest
    label wins, the lowest on a tie. None when nothing is set."""
    h, w = len(mask), len(mask[0])
    labels = [[0] * w for _ in range(h)]
    sizes = []
    for i in range(h):
        for j in range(w):
            if mask[i][j] and not labels[i][j]:
                sizes.append(0)
                labels[i][j] = len(sizes)
                todo = [(i, j)]
                while todo:
                    y, x = todo.pop()
                    sizes[-1] += 1
                    for yy in (y - 1, y, y + 1):
                        for xx in (x - 1, x, x + 1):
                            if 0 <= yy < h and 0 <= xx < w and mask[yy][xx] and not labels[yy][xx]:
                                labels[yy][xx] = len(sizes)
                                todo.append((yy, xx))
    if not sizes:
        return None
    best = sizes.index(max(sizes)) + 1
    return np.array(labels) == best


# two blobs of equal size: the top-right one comes first in raster order
_TIED = np.zeros((5, 7), dtype=bool)
_TIED[3, 0:2] = _TIED[0, 5:7] = True
# one component whose second run touches only a later run, so that
# ``_largest_blob`` cannot take it whole; beside it, a smaller blob
_U = np.zeros((6, 9), dtype=bool)
_U[0:4, [0, 4]] = _U[4, 0:5] = _U[1:3, 7:9] = True
_SHAPES = [(1, 1), (1, 9), (9, 1), (4, 6)]
_EDGE_CASES = (
    [np.zeros(s, dtype=bool) for s in _SHAPES]
    + [np.ones(s, dtype=bool) for s in _SHAPES]
    + [np.eye(1, 9, 4, dtype=bool), np.eye(9, 1, -4, dtype=bool), np.eye(5, dtype=bool)]
    + [_TIED, _TIED[::-1], np.ones((3, 3), dtype=bool) ^ np.eye(3, dtype=bool)[::-1]]
    + [_U, _U[::-1], _U[:, ::-1], _U[:5, :5], np.tile(_U[:5, :5], (2, 3))]
)


def _random_masks(count, rng):
    for _ in range(count):
        h, w = rng.integers(1, 13, size=2)
        yield rng.random((h, w)) < rng.random()


class TestKernelsMatchReferences:
    def test_binarize(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            h, w = rng.integers(1, 17, size=2)
            # windows of 3, 5, 9 and 13 px; 13 at the default particle size
            d = float(rng.choice([1.5, 2.5, 4.5, D_PX]))
            offset = float(rng.choice([10.0, 2.5, 0.0, -3.0]))
            diff = rng.integers(0, 256, size=(h, w)).astype(np.int16)
            if k % 2:  # mostly background, as in a background difference
                diff[rng.random((h, w)) < 0.8] = 0
            got = _binarize(diff, d, offset)
            assert np.array_equal(got, _binarize_reference(diff, d, offset)), (k, d, offset)

    def test_best_window(self):
        rng = np.random.default_rng(14)
        for k, mask in enumerate(_EDGE_CASES + list(_random_masks(400, rng))):
            d = float(rng.choice([1.0, 2.0, 3.3, 4.0]))  # windows of 3 to 6 px, strides 1 and 2
            fraction = float(rng.choice([0.0, 0.3, 1.0]))
            got = _best_window(mask, d, fraction)
            assert got == _best_window_reference(mask, d, fraction), (k, d, fraction, mask.astype(int))

    def test_close3(self):
        rng = np.random.default_rng(12)
        for mask in _EDGE_CASES + list(_random_masks(700, rng)):
            assert np.array_equal(_close3(mask), _close3_reference(mask)), mask.astype(int)

    def test_largest_blob(self):
        rng = np.random.default_rng(13)
        for mask in _EDGE_CASES + list(_random_masks(800, rng)):
            got, want = _largest_blob(mask), _largest_blob_reference(mask)
            assert (got is None) == (want is None), mask.astype(int)
            if want is not None:
                assert np.array_equal(got, want), mask.astype(int)
        assert _largest_blob(_TIED)[0, 5] and not _largest_blob(_TIED)[3, 0]
        assert _largest_blob(_U)[0, 4] and not _largest_blob(_U)[1, 7]

    def test_window_sums(self):
        rng = np.random.default_rng(15)
        lengths = [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3] + rng.integers(1, 200, 60).tolist()
        for length in lengths:
            n = int(rng.integers(1, length + 1))
            step = int(rng.choice([1, 2, 3, max(n // 3, 1), n, 2 * _TILE]))
            a = rng.integers(0, 256, size=(length, 3)).astype(float)
            starts = sorted(set(range(0, length - n + 1, step)) | {length - n})
            want = np.array([a[s : s + n].sum(axis=0) for s in starts])
            assert np.array_equal(_window_sums(a, n, step), want), (length, n, step)
            assert np.array_equal(_window_sums(a.T, n, step, axis=1), want.T), (length, n, step)

    def test_band_products_past_one_tile(self):
        # frames up to 150 px and windows up to 51 px, a particle at vision
        # scale 1, against the cumulative-sum kernels
        rng = np.random.default_rng(16)
        shapes = [(_TILE, _TILE + 1), (2 * _TILE + 1, 3)] + [tuple(rng.integers(1, 151, size=2)) for _ in range(40)]
        assert max(map(max, shapes)) > 2 * _TILE
        for h, w in shapes:
            d = float(rng.choice([1.5, 4.5, D_PX, 12.0, 25.3]))
            offset = float(rng.choice([10.0, 2.5, 0.0, -3.0]))
            diff = rng.integers(0, 256, size=(h, w)).astype(np.int16)
            diff[rng.random((h, w)) < 0.8] = 0
            fg = _binarize(diff, d, offset)
            assert np.array_equal(fg, _binarize_take(diff, d, offset)), (h, w, d, offset)
            for mask in (fg, rng.random((h, w)) < rng.random()):
                for fraction in (0.0, 0.3):
                    assert _best_window(mask, d, fraction) == _best_window_full(mask, d, fraction), (h, w, d)

    def test_window_sums_of_replicated_edges(self):
        # against np.pad's edge replication and cumulative sums: windows
        # wider than a side, and heights whose repeats fall in the first or
        # last tile or, past _TILE rows of repeats, in the middle ones
        rng = np.random.default_rng(18)
        for h in [1, 2, 5, 47, 48, 49, 50, _TILE, _TILE + 1, 2 * _TILE + 3]:
            for n in sorted({3, 13, 51, h + 1 + h % 2, 2 * h + 1, int(rng.integers(1, 100)) | 1}):
                r = n // 2
                a = rng.integers(0, 256, size=(h, 3)).astype(float)
                sums = np.zeros((h + 2 * r + 1, 3))
                np.cumsum(np.pad(a, ((r, r), (0, 0)), mode="edge"), axis=0, out=sums[1:])
                want = sums[n:] - sums[:-n]
                assert np.array_equal(_window_sums(a, n, pad=r), want), (h, n)
                assert np.array_equal(_window_sums(a.T, n, axis=1, pad=r), want.T), (h, n)

    def test_box_sums_of_loop_crops(self):
        # the two passes of ``_binarize`` on crops near a loop crop's 48 x 50,
        # and on taller ones, against the box sums of the edge-padded crop
        rng = np.random.default_rng(19)
        shapes = [(48, 50), (50, 48), (47, 51), (49, 49), (_TILE, 50), (_TILE + 1, 48), (2 * _TILE + 3, 49)]
        for h, w in shapes + [tuple(rng.integers(40, 57, size=2)) for _ in range(10)]:
            for n in (13, 51, 2 * max(h, w) + 1):
                r = n // 2
                diff = rng.integers(0, 256, size=(h, w)).astype(float)
                diff[rng.random((h, w)) < 0.8] = 0.0
                got = _window_sums(_window_sums(diff, n, pad=r), n, axis=1, pad=r)
                assert np.array_equal(got, _box_sums_full(np.pad(diff, r, mode="edge"), n)), (h, w, n)

    def test_axes(self):
        # against the eigenvalues of the weighted covariance, within a
        # rounding of the major variance
        rng = np.random.default_rng(17)
        cases = [(np.zeros(1), np.zeros(1), np.ones(1))]  # one pixel
        cases.append((np.arange(9.0) - 4.0, 0.5 * (np.arange(9.0) - 4.0), np.ones(9)))  # a line
        for _ in range(200):
            k = int(rng.integers(2, 400))
            du, dv = rng.normal(0.0, rng.uniform(0.1, 20.0, size=2)[:, None], size=(2, k))
            cases.append((du, dv, rng.integers(1, 256, size=k).astype(float)))
        for du, dv, weights in cases:
            mass = float(weights.sum())
            offsets = np.stack([du, dv])
            minor_var, major_var = np.linalg.eigvalsh((offsets * weights) @ offsets.T / mass)
            major, minor = _axes(du, dv, weights, mass)
            tol = 1e-12 * (1.0 + major_var)
            assert abs(major**2 / 16.0 - major_var) <= tol
            assert abs(minor**2 / 16.0 - max(minor_var, 0.0)) <= tol


# The former numpy kernels, kept as slow references for the summed-area
# table that ``_binarize`` pads in place and the counts ``_best_window``
# reads at the stride grid: edges padded by two ``take`` copies, and every
# window's box sum built before the candidates are picked out.


def _box_sums_full(a, n):
    h, w = a.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    sat[1:, 1:] = a
    np.cumsum(np.cumsum(sat, axis=0, out=sat), axis=1, out=sat)
    return sat[n:, n:] - sat[:-n, n:] - sat[n:, :-n] + sat[:-n, :-n]


def _binarize_take(diff, expected_diameter_px, offset):
    n = _binarize_window(expected_diameter_px)
    r = n // 2
    h, w = diff.shape
    rows = np.clip(np.arange(-r, h + r), 0, h - 1)
    cols = np.clip(np.arange(-r, w + r), 0, w - 1)
    sums = _box_sums_full(diff.take(rows, axis=0).take(cols, axis=1), n)
    return (diff - offset) * (n * n) > sums


def _best_window_full(fg, expected_diameter_px, min_fraction):
    h, w = fg.shape
    size = min(max(_patch_half(expected_diameter_px), 3), h, w)
    stride = _stride(expected_diameter_px)
    rows = list(range(0, h - size + 1, stride))
    cols = list(range(0, w - size + 1, stride))
    if rows[-1] != h - size:
        rows.append(h - size)
    if cols[-1] != w - size:
        cols.append(w - size)
    counts = _box_sums_full(fg, size)[np.array(rows)[:, None], cols]
    best = np.unravel_index(int(np.argmax(counts)), counts.shape)
    if counts[best] < _area_floor(expected_diameter_px, min_fraction):
        return None
    return rows[best[0]], cols[best[1]], size


def _seeded_crops(cam, rng):
    """Crops of ``cam``'s sensor around particles: tracking windows clipped
    at each sensor edge and one inside, and 7 to 12 px windows, narrower
    than the 13 px binarization window, around the particle."""
    w, h = cam.image_size
    inside = rng.uniform([60.0, 60.0], [w - 60.0, h - 60.0])
    edges = [(rng.uniform(-2.0, 6.0), inside[1]), (inside[0], rng.uniform(-2.0, 6.0))]
    edges += [(w - rng.uniform(-2.0, 6.0), inside[1]), (inside[0], h - rng.uniform(-2.0, 6.0))]
    for uv in [tuple(inside)] + edges:
        particle = _particle_at(cam, uv)
        window = tracking_window(cam.image_size, uv, D_PX)
        yield particle, window
        cw, ch = (int(k) for k in rng.integers(7, 13, size=2))
        c0 = min(max(int(uv[0]) - cw // 2, 0), w - cw)
        r0 = min(max(int(uv[1]) - ch // 2, 0), h - ch)
        yield particle, Window(c0, r0, c0 + cw, r0 + ch)


def _same_observation(a, b):
    if not (a.valid and b.valid):
        return (a.valid, a.reason) == (b.valid, b.reason)
    return (a.u, a.v, a.major_px, a.minor_px) == (b.u, b.v, b.major_px, b.minor_px)


@pytest.mark.parametrize("background", ["flat", "gradient"])
@pytest.mark.parametrize("sigma", [0.0, 5.0, 12.0])
def test_extraction_matches_the_former_kernels(monkeypatch, sigma, background):
    from acoustrap import vision

    scene = Background(kind="gradient", level=170.0, du=25.0, dv=15.0) if background == "gradient" else Background()
    cam = dataclasses.replace(CAM_H, noise_sigma=sigma, background=scene)
    config = dataclasses.replace(CFG.vision, noise_sigma=sigma)
    bg = background_image(cam)
    recorded = np.rint(bg).astype(np.int16)
    n = _binarize_window(D_PX)
    offset = max(config.binarize_offset, 2.0 * sigma)
    rng = np.random.default_rng(int(sigma) + 17 * (background == "gradient"))
    cases = []
    for seed in range(4):
        for particle, window in _seeded_crops(cam, rng):
            frame = render_frame(cam, particle, seed, window)
            diff = np.abs(frame.pixels.astype(np.int16) - recorded[window.slices])
            fg = _binarize(diff, D_PX, offset)
            assert np.array_equal(fg, _binarize_take(diff, D_PX, offset)), window
            # the crop's mask, and a random one of its shape: a miscounted
            # corner seldom moves the pick on a mask with one dense disc
            for mask in (fg, rng.random(fg.shape) < 0.3):
                for fraction in (0.0, config.min_foreground_fraction):
                    assert _best_window(mask, D_PX, fraction) == _best_window_full(mask, D_PX, fraction), window
            cases.append((frame, window, extract_feature(frame, bg[window.slices], D_PX, config)))
    w, h = cam.image_size
    windows = [window for _, window, _ in cases]
    assert any(min(win.c1 - win.c0, win.r1 - win.r0) < n for win in windows)
    # crops clipped at the left, top, right and bottom sensor edges
    assert all(map(any, zip(*[(c0 == 0, r0 == 0, c1 == w, r1 == h) for c0, r0, c1, r1 in windows])))
    assert sum(obs.valid for _, _, obs in cases) >= len(cases) // 2
    monkeypatch.setattr(vision, "_binarize", _binarize_take)
    monkeypatch.setattr(vision, "_best_window", _best_window_full)
    for frame, window, obs in cases:
        slow = extract_feature(frame, bg[window.slices], D_PX, config)
        assert _same_observation(obs, slow), (window, obs, slow)


@pytest.mark.parametrize("background", ["flat", "gradient"])
@pytest.mark.parametrize("sigma", [0.0, 5.0])
def test_recorded_background_extracts_as_the_float_one(sigma, background):
    # the loop hands extraction the 8-bit background, the CLI and these
    # tests the float one, which extraction rounds and clips itself
    scene = Background(kind="gradient", level=170.0, du=25.0, dv=15.0) if background == "gradient" else Background()
    cam = dataclasses.replace(CAM_H, noise_sigma=sigma, background=scene)
    config = dataclasses.replace(CFG.vision, noise_sigma=sigma)
    bg, recorded = background_image(cam), background_pixels(cam)
    assert background_pixels(dataclasses.replace(cam, noise_sigma=1.0)) is recorded
    assert recorded.dtype == np.uint8 and not recorded.flags.writeable
    assert np.array_equal(recorded, np.rint(np.clip(bg, 0, 255)))
    rng = np.random.default_rng(int(sigma) + 17 * (background == "gradient"))
    for seed in range(3):
        for particle, window in _seeded_crops(cam, rng):
            frame = render_frame(cam, particle, seed, window)
            a = extract_feature(frame, recorded[window.slices], D_PX, config)
            b = extract_feature(frame, bg[window.slices], D_PX, config)
            assert _same_observation(a, b), (window, a, b)
        w, h = cam.image_size
        full = render_frame(cam, _particle_at(cam, rng.uniform([60.0, 60.0], [w - 60.0, h - 60.0])), seed)
        a, b = (extract_feature(full, image, D_PX, config) for image in (recorded, bg))
        assert a.valid and _same_observation(a, b), (a, b)
    for wrong in (recorded[:-1], bg[:-1]):
        with pytest.raises(ConfigurationError, match=r"background shape \(511, 612\) does not match frame \(512, 612\)"):
            extract_feature(full, wrong, D_PX, config)


def test_camera_gray_levels_bounded():
    for name in ("noise_sigma", "particle_level"):
        for value in (-1.0, 255.5, 1e308, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=rf"camera.{name} must be within \[0, 255\]"):
                dataclasses.replace(CAM_H, **{name: value})
        assert getattr(dataclasses.replace(CAM_H, **{name: 255.0}), name) == 255.0


class TestSensorNoise:
    """The per-band noise field against iid N(0, sigma^2) pixels."""

    SIGMA = 5.0
    # neither side is a multiple of the band height
    SIZE = (611, 513)
    FULL = Window(0, 0, *SIZE)

    def _variance_is_sigma2(self, x):
        # sum(x^2) / sigma^2 is chi-square with x.size degrees of freedom;
        # allow 5 standard deviations of its mean
        ratio = float(np.sum(x**2)) / self.SIGMA**2 / x.size
        return abs(ratio - 1.0) < 5.0 * math.sqrt(2.0 / x.size)

    @staticmethod
    def _uncorrelated(left, right):
        left, right = left.ravel(), right.ravel()
        return abs(np.corrcoef(left, right)[0, 1]) < 5.0 / math.sqrt(left.size)

    def test_distribution(self):
        noise = _sensor_noise(self.SIGMA, 2024, self.FULL)
        assert noise.shape == (513, 611)
        assert self._variance_is_sigma2(noise)
        assert abs(float(noise.mean())) < 5.0 * self.SIGMA / math.sqrt(noise.size)
        for a in (noise, noise.T):  # along rows, then along columns
            # neighbours anywhere
            assert self._uncorrelated(a[:, :-1], a[:, 1:])
            # pixels one band height apart: down a column they lie in
            # adjacent bands, which draw different counter ranges
            assert self._uncorrelated(a[:, :-_BAND], a[:, _BAND:])
        # the neighbours on either side of a band border
        n = (noise.shape[0] - 1) // _BAND
        assert self._uncorrelated(noise[_BAND - 1 :: _BAND][:n], noise[_BAND::_BAND][:n])

    def test_shape_is_gaussian(self):
        # a variance of sigma^2 alone passes a wrongly scaled or wrongly
        # paired transform too
        z = np.abs(_sensor_noise(self.SIGMA, 2025, self.FULL)) / self.SIGMA
        for k in (1, 2, 3):  # 31.73%, 4.55% and 0.27% of N(0, 1) lie beyond
            p = math.erfc(k / math.sqrt(2.0))
            share = float(np.mean(z > k))
            assert abs(share - p) < 5.0 * math.sqrt(p * (1.0 - p) / z.size), (k, share, p)
        # Box-Muller pair-mates, rows 2m and 2m + 1 of a column, share the
        # radius; their squares are independent all the same
        rows = z.shape[0] // 2 * 2
        assert self._uncorrelated(z[0:rows:2] ** 2, z[1:rows:2] ** 2)

    def test_window_is_slice_of_full_sensor(self):
        full = _sensor_noise(self.SIGMA, 7, self.FULL)
        rng = np.random.default_rng(3)
        w, h = self.SIZE
        for _ in range(200):
            c0, c1 = sorted(rng.choice(w + 1, 2, replace=False))
            r0, r1 = sorted(rng.choice(h + 1, 2, replace=False))
            win = Window(int(c0), int(r0), int(c1), int(r1))
            assert np.array_equal(_sensor_noise(self.SIGMA, 7, win), full[win.slices]), win
