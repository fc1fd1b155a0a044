import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from acoustrap.calibration import (
    MAX_LATTICE_POINTS,
    ROW_ORDER,
    JacobianMatrix,
    ReferencePoint,
    ReferenceSet,
    acquire_reference,
    build_camera_pair,
    calibrate_jacobian,
    calibration_from_dict,
    calibration_to_dict,
    default_calibration,
    lattice_points,
    load_calibration,
    localize,
    _ascent_step,
    _pair_inverse,
    save_calibration,
)
from acoustrap.config import SimulatorConfig, VisionConfig
from acoustrap.core import MediumConfig, TransducerArray, Vec3
from acoustrap.errors import CalibrationError, ConfigurationError
from acoustrap.field import pressure_and_gradient_at_points, pressure_at_points
from acoustrap.hologram import make_focus_hologram
from acoustrap.vision import KeyedDraws, project

# factory sensitivity values, pixel per micrometer, rows in ROW_ORDER
FACTORY_J = np.array(
    [
        [-0.0002, -0.0631, -0.0009],
        [-0.0001, 0.0012, -0.0634],
        [-0.0623, -0.0044, 0.0003],
        [0.0043, -0.0623, 0.0011],
    ]
)


class TestJacobianMatrix:
    def test_shape_and_rank_validation(self):
        with pytest.raises(CalibrationError):
            JacobianMatrix(np.zeros((3, 3)))
        degenerate = np.zeros((4, 3))
        degenerate[:, 0] = 1.0
        with pytest.raises(CalibrationError):
            JacobianMatrix(degenerate)

    def test_pseudo_inverse_round_trip(self):
        # localize applies the pseudo-inverse of the Jacobian that built the pair
        _, refs = default_calibration()
        cameras = build_camera_pair(VisionConfig(scale=1.0), (JacobianMatrix(FACTORY_J), refs))
        delta = np.array([120.0, -340.0, 55.0])
        pix = np.concatenate([c.ref_pixel for c in cameras]) + FACTORY_J @ delta
        back = localize(cameras, tuple(pix[:2]), tuple(pix[2:]))
        assert np.allclose((back - refs.world_centroid).as_array() * 1e3, delta, atol=1e-9)

    def test_condition_number_finite(self):
        jac = JacobianMatrix(FACTORY_J)
        assert 1.0 <= jac.condition_number < 10.0


class TestDefaultCalibration:
    def test_factory_values(self):
        jac, refs = default_calibration()
        assert np.allclose(jac.matrix, FACTORY_J)
        assert len(refs.points) == 1
        ref = refs.points[0]
        assert ref.world == Vec3(25.0, 25.0, 40.0)
        assert ref.pixel_h == (1328.1, 716.4)
        assert ref.pixel_v == (854.2, 951.4)

    def test_row_order(self):
        assert ROW_ORDER == ("u_h", "v_h", "u_v", "v_v")


class TestLocalize:
    """Localization inverts the camera pair that renders the frames."""

    # the factory calibration at native resolution
    NATIVE = build_camera_pair(VisionConfig(scale=1.0))

    def test_round_trip_exact(self):
        cam_h, cam_v = self.NATIVE
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = Vec3(*rng.uniform([6.5, 10.0, 25.0], [43.5, 40.0, 55.0]))
            got = localize(self.NATIVE, project(cam_h, p), project(cam_v, p))
            assert got.distance_to(p) < 1e-9

    @pytest.mark.parametrize("scale", [0.25, 0.5])
    def test_inverts_projection_at_reduced_scale(self, scale):
        cameras = cam_h, cam_v = build_camera_pair(VisionConfig(scale=scale))
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = Vec3(*rng.uniform([6.5, 10.0, 25.0], [43.5, 40.0, 55.0]))
            assert localize(cameras, project(cam_h, w), project(cam_v, w)).distance_to(w) < 1e-9

    def test_reference_maps_to_itself(self):
        cam_h, cam_v = self.NATIVE
        got = localize(self.NATIVE, tuple(cam_h.ref_pixel), tuple(cam_v.ref_pixel))
        assert got.distance_to(cam_h.ref_world) < 1e-12

    def test_rejects_cameras_with_different_anchors(self):
        cam_h, cam_v = self.NATIVE
        moved = dataclasses.replace(cam_v, ref_world=cam_v.ref_world + Vec3(0.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError, match="different world points"):
            localize((cam_h, moved), project(cam_h, cam_h.ref_world), project(moved, cam_h.ref_world))


def _synthetic_pairs(jac, n, noise=0.0, seed=0):
    """(world motion um, pixel motion) pairs through ``jac``, with Gaussian
    pixel noise."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        move = rng.uniform(-500.0, 500.0, 3)  # um
        shift = jac @ move + rng.normal(0.0, noise, 4)
        pairs.append((move, shift))
    return pairs


class TestCachedPairInverse:
    """``localize`` takes each pair's pseudo-inverse once and keeps it."""

    @staticmethod
    def _uncached(cameras, pixel_h, pixel_v):
        cam_h, cam_v = cameras
        observed = np.array([pixel_h[0], pixel_h[1], pixel_v[0], pixel_v[1]], dtype=float)
        anchor = np.array(cam_h.ref_pixel + cam_v.ref_pixel)
        inverse = _pair_inverse.__wrapped__(cam_h.rows_of_j, cam_v.rows_of_j)
        delta_um = [math.fsum(np.multiply(row, observed - anchor)) for row in inverse]
        return cam_h.ref_world.as_array() + np.array(delta_um) / 1e3

    def test_interleaved_pairs_match_an_uncached_solve(self):
        factory = build_camera_pair(VisionConfig())
        fitted_jacobian = calibrate_jacobian(_synthetic_pairs(FACTORY_J, 30, noise=0.5, seed=8)).jacobian
        refs = ReferenceSet((ReferencePoint(Vec3(24.6, 25.3, 40.2), (1310.0, 705.0), (860.0, 948.0)),))
        fitted = build_camera_pair(VisionConfig(), (fitted_jacobian, refs))
        assert fitted[0].rows_of_j != factory[0].rows_of_j
        rng = np.random.default_rng(4)
        for k in range(40):
            cameras = (factory, fitted)[k % 2]
            pixel_h, pixel_v = tuple(rng.uniform(0.0, 500.0, 2)), tuple(rng.uniform(0.0, 500.0, 2))
            got = localize(cameras, pixel_h, pixel_v).as_array()
            # the product's rounding, a few ulp of the largest term
            assert np.abs(got - self._uncached(cameras, pixel_h, pixel_v)).max() <= 1e-12
        # the factory rows are cached by now; another anchor is still refused
        cam_h, cam_v = factory
        moved = dataclasses.replace(cam_v, ref_world=cam_v.ref_world + Vec3(0.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError, match="different world points"):
            localize((cam_h, moved), (300.0, 250.0), (310.0, 240.0))

    def test_cached_inverse_is_read_only(self):
        cam_h, cam_v = build_camera_pair(VisionConfig())
        localize((cam_h, cam_v), (300.0, 250.0), (310.0, 240.0))
        inverse = _pair_inverse(cam_h.rows_of_j, cam_v.rows_of_j)
        assert inverse is _pair_inverse(cam_h.rows_of_j, cam_v.rows_of_j)
        with pytest.raises(TypeError):
            inverse[0][0] = 0.0

    def test_inverse_matches_pinv(self):
        # Python floats against LAPACK's SVD, on the factory pair at two
        # scales, a fitted Jacobian and random ones of condition below 100
        rng = np.random.default_rng(9)
        jacobians = [np.vstack([c.rows_of_j for c in build_camera_pair(VisionConfig(scale=s))]) for s in (0.25, 1.0)]
        jacobians.append(calibrate_jacobian(_synthetic_pairs(FACTORY_J, 30, noise=0.5, seed=8)).jacobian.matrix)
        randoms = (rng.normal(0.0, rng.uniform(0.01, 10.0), (4, 3)) for _ in range(40))
        jacobians += [j for j in randoms if np.linalg.cond(j) < 100.0]
        assert len(jacobians) > 30
        for j in jacobians:
            pinv = np.linalg.pinv(j)
            rows = [tuple(row) for row in j.tolist()]
            inverse = np.array(_pair_inverse((rows[0], rows[1]), (rows[2], rows[3])))
            assert np.abs(inverse - pinv).max() <= 1e-12 * np.abs(pinv).max(), np.linalg.cond(j)


class TestCalibrateJacobian:
    def test_recovers_factory_matrix_noiselessly(self):
        result = calibrate_jacobian(_synthetic_pairs(FACTORY_J, 12))
        assert np.allclose(result.jacobian.matrix, FACTORY_J, atol=1e-12)
        assert result.residual_rms < 1e-12

    def test_noise_attenuates_with_many_pairs(self):
        result = calibrate_jacobian(_synthetic_pairs(FACTORY_J, 60, noise=0.5, seed=3))
        assert np.abs(result.jacobian.matrix - FACTORY_J).max() < 0.002
        assert result.residual_rms == pytest.approx(0.5, rel=0.5)

    def test_requires_three_pairs(self):
        with pytest.raises(CalibrationError, match="at least 3"):
            calibrate_jacobian(_synthetic_pairs(FACTORY_J, 2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_pairs_name_a_missed_direction(self, n):
        with pytest.raises(CalibrationError, match="direction"):
            calibrate_jacobian(_synthetic_pairs(FACTORY_J, n))

    def test_planar_motion_rejected_naming_direction(self):
        pairs = []
        for k in range(6):
            move = np.array([k + 1.0, 2.0 * k - 3.0, 0.0])  # never excites z
            pairs.append((move, FACTORY_J @ move))
        with pytest.raises(CalibrationError, match="direction"):
            calibrate_jacobian(pairs)


class TestReferenceSet:
    def test_centroids(self):
        refs = ReferenceSet(
            (
                ReferencePoint(Vec3(24.0, 25.0, 40.0), (100.0, 200.0), (300.0, 400.0)),
                ReferencePoint(Vec3(26.0, 25.0, 42.0), (110.0, 210.0), (310.0, 410.0)),
            )
        )
        assert refs.world_centroid == Vec3(25.0, 25.0, 41.0)
        assert np.allclose(refs.pixel_centroid, [105.0, 205.0, 305.0, 405.0])

    def test_needs_at_least_one_point(self):
        with pytest.raises(CalibrationError):
            ReferenceSet(())

    def test_pixels_must_be_finite_in_code_too(self):
        # not only from a file: a set built in code anchors the cameras as well
        point = ReferencePoint(Vec3(24.0, 25.0, 40.0), (100.0, 200.0), (300.0, math.nan))
        with pytest.raises(CalibrationError, match=r"reference point 0 has pixels \(100.0, 200.0\) and \(300.0, nan\)"):
            ReferenceSet((point,))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        jac, refs = default_calibration()
        path = tmp_path / "calibration.json"
        save_calibration(path, jac, refs)
        jac2, refs2 = load_calibration(path)
        assert np.allclose(jac2.matrix, jac.matrix)
        assert refs2.points[0].world == refs.points[0].world
        assert refs2.points[0].pixel_h == refs.points[0].pixel_h

    def test_units_block_required(self):
        jac, refs = default_calibration()
        doc = calibration_to_dict(jac, refs)
        del doc["units"]
        with pytest.raises(CalibrationError, match="units"):
            calibration_from_dict(doc)

    @pytest.mark.parametrize("text", ["5", '{"units": 5}'], ids=["root", "units"])
    def test_non_mapping_document_is_calibration_error(self, tmp_path, text):
        p = tmp_path / "calibration.json"
        p.write_text(text)
        with pytest.raises(CalibrationError, match="calibration document"):
            load_calibration(p)

    @pytest.mark.parametrize("field", ["pixel_h", "pixel_v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e9, 1e308])
    def test_reference_pixels_must_be_finite_and_bounded(self, field, value):
        # the cameras' reference pixels are the points' centroid, which no
        # later step checks: two points at 1e308 would overflow it
        jac, refs = default_calibration()
        doc = calibration_to_dict(jac, ReferenceSet(refs.points * 3))
        for point in doc["reference_points"][1:]:
            point[field][1] = value
        with pytest.raises(
            CalibrationError, match=r"^calibration reference point 1 has pixels \(.*within ±1e\+09 px$"
        ) as err:
            calibration_from_dict(doc)
        assert "\n" not in str(err.value)
        for point in doc["reference_points"][1:]:
            point[field][1] = -1e9  # the bound itself loads
        assert getattr(calibration_from_dict(doc)[1].points[1], field)[1] == -1e9

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_calibration(tmp_path / "missing.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(CalibrationError):
            load_calibration(p)

    def test_dict_form_has_row_order_and_units(self):
        jac, refs = default_calibration()
        doc = calibration_to_dict(jac, refs)
        assert doc["row_order"] == list(ROW_ORDER)
        assert doc["units"]["jacobian"] == "pixel per micrometer"
        json.dumps(doc)


class TestLattice:
    def test_counts_and_spacing(self):
        pts = lattice_points(Vec3(25.0, 25.0, 40.0), counts=(2, 3, 4), spacing=2.0)
        assert len(pts) == 24
        xs = sorted({p.x for p in pts})
        ys = sorted({p.y for p in pts})
        zs = sorted({p.z for p in pts})
        assert xs == [24.0, 26.0]
        assert ys == [23.0, 25.0, 27.0]
        assert zs == [37.0, 39.0, 41.0, 43.0]

    def test_point_count_is_bounded(self):
        centre = Vec3(25.0, 25.0, 40.0)
        assert len(lattice_points(centre, (10, 10, 10))) == MAX_LATTICE_POINTS
        for counts in [(10, 10, 11), (1000, 1000, 1000)]:
            with pytest.raises(ConfigurationError, match=r"lattice \d+x\d+x\d+ has"):
                lattice_points(centre, counts)


class TestAcquireReference:
    def test_finds_commanded_focus(self, cameras):
        arr, med = TransducerArray(), MediumConfig()
        focus = Vec3(25.0, 25.0, 40.0)
        ref = acquire_reference(arr, med, focus, cameras, scan_extent=1.0, scan_step=0.25)
        assert ref.world.distance_to(focus) <= 0.3
        # the reported pixels sit where the cameras project the found point
        u, v = project(cameras[0], ref.world)
        assert (u, v) == pytest.approx(ref.pixel_h, abs=1e-6)

    def test_noise_injects_into_pixels(self, cameras):
        # (u, v) of camera h, then v: sigma times the normal draws of the
        # noise key, row 0, columns 0-3
        arr, med = TransducerArray(), MediumConfig()
        focus = Vec3(25.0, 25.0, 40.0)
        clean = acquire_reference(arr, med, focus, cameras, scan_extent=0.5, scan_step=0.25)
        a, b = (
            acquire_reference(
                arr, med, focus, cameras, scan_extent=0.5, scan_step=0.25,
                pixel_noise_sigma=1.5, noise_key=(seed, 4, 0),
            )
            for seed in (1, 2)
        )
        assert a.pixel_h != b.pixel_h and a.world == b.world == clean.world
        draws = KeyedDraws((1, 4, 0))
        noisy = [x + 1.5 * draws.normal(0, col) for col, x in enumerate(clean.pixel_h + clean.pixel_v)]
        assert a.pixel_h + a.pixel_v == tuple(noisy)

    @staticmethod
    def _grid_peak(arr, med, focus, around, step=0.005, half=0.03):
        """Slow reference: argmax of |p| over a fine cube centred on ``around``."""
        offs = np.arange(-half, half + step / 2, step)
        cube = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = around.as_array() + cube
        holo = make_focus_hologram(arr, focus, med)
        return pts[int(np.argmax(np.abs(pressure_at_points(arr, holo, pts, med))))]

    def test_search_matches_fine_grid_peak(self, cameras):
        arr, med = TransducerArray(), MediumConfig()
        poses = lattice_points(Vec3(25.0, 25.0, 40.0), (2, 3, 4), 2.0)
        for focus in (poses[0], poses[7], poses[13], poses[23]):
            ref = acquire_reference(arr, med, focus, cameras)
            peak = self._grid_peak(arr, med, focus, ref.world)
            assert np.abs(peak - ref.world.as_array()).max() <= 0.005 + 1e-9
            # the focal shift: the bead settles below the commanded focus
            assert focus.z - 0.1 < ref.world.z < focus.z - 0.04

    # peaks that a compass search (best of six axis neighbours, step halved
    # from 0.2 mm while at least 1 um) found for poses 0, 7, 13 and 23 of the
    # default 2x3x4 lattice
    COMPASS_PEAKS = {
        0: (24.0015625, 23.0015625, 36.94375),
        7: (24.0015625, 25.0, 42.921875),
        13: (25.9984375, 23.0015625, 38.9359375),
        23: (25.9984375, 26.996875, 42.9203125),
    }

    def test_search_ends_where_no_axis_neighbour_is_higher(self, cameras):
        # the compass search's own stopping rule at its 1 um resolution
        arr, med = TransducerArray(), MediumConfig()
        poses = lattice_points(Vec3(25.0, 25.0, 40.0), (2, 3, 4), 2.0)
        neighbours = np.vstack([np.zeros(3), 1e-3 * np.eye(3), -1e-3 * np.eye(3)])
        for index, compass_peak in self.COMPASS_PEAKS.items():
            focus = poses[index]
            peak = acquire_reference(arr, med, focus, cameras).world.as_array()
            mags = np.abs(pressure_at_points(arr, make_focus_hologram(arr, focus, med), peak + neighbours, med))
            assert mags[1:].max() <= mags[0], index
            assert np.abs(peak - compass_peak).max() <= 2e-3, index

    def test_search_evaluates_few_kernel_points(self, cameras, monkeypatch):
        from acoustrap import calibration

        sizes = []

        def counting(array, holo, pts, medium):
            sizes.append(len(pts))
            return pressure_and_gradient_at_points(array, holo, pts, medium)

        monkeypatch.setattr(calibration, "pressure_and_gradient_at_points", counting)
        acquire_reference(TransducerArray(), MediumConfig(), Vec3(24.0, 23.0, 37.0), cameras)
        assert max(sizes) <= 4
        assert sum(sizes) <= 16

    def test_step_is_newton_where_the_hessian_is_negative_definite(self):
        hess = [[-2.0, 0.0, 0.0], [0.0, -4.0, 0.0], [0.0, 0.0, -1.0]]
        assert _ascent_step([1.0, 1.0, 1.0], hess, 5.0) == pytest.approx([0.5, 0.25, 1.0], rel=1e-15)
        # clipped to the trust radius, in the same direction
        clipped = _ascent_step([1.0, 1.0, 1.0], hess, 0.1)
        assert math.hypot(*clipped) == pytest.approx(0.1) and clipped == pytest.approx([0.0436, 0.0218, 0.0873], abs=1e-4)

    @pytest.mark.parametrize(
        "g, hess",
        [
            # indefinite: the Newton step (2, -1, 0) climbs, but toward a saddle
            ([2.0, 1.0, 0.0], [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
            # positive definite: the Newton step descends
            ([2.0, 1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            # the cofactors overflow to inf - inf
            ([2.0, 1.0, 0.0], [[-1e200, 0.0, 0.0], [0.0, -1e200, 0.0], [0.0, 0.0, -1e200]]),
        ],
        ids=["indefinite", "minimum", "overflow"],
    )
    def test_step_falls_back_to_the_gradient(self, g, hess):
        step = _ascent_step(g, hess, 0.1)
        assert step == pytest.approx([0.1 * 2 / math.sqrt(5), 0.1 / math.sqrt(5), 0.0], rel=1e-15)

    def test_drive_frequency_near_overflow_ends_without_warning(self, cameras):
        # at 1e308 Hz the wavelength is 1.5e-302 mm: |p| varies like noise and
        # the Hessian's cofactors overflow; the search still returns a point
        # in its cube
        focus = Vec3(25.0, 25.0, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref = acquire_reference(TransducerArray(frequency=1e308), MediumConfig(), focus, cameras)
        assert np.abs((ref.world - focus).as_array()).max() <= 1.0
        assert np.isfinite(ref.pixel_h + ref.pixel_v).all()

    def test_overflowing_pressure_raises_without_warning(self, cameras):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CalibrationError, match="overflows near"):
                acquire_reference(
                    TransducerArray(emission_amplitude=1e308), MediumConfig(), Vec3(25.0, 25.0, 40.0), cameras
                )

    def test_search_leaving_the_cube_raises(self, cameras):
        with pytest.raises(CalibrationError, match="peak search left"):
            acquire_reference(
                TransducerArray(), MediumConfig(), Vec3(25.0, 25.0, 40.0), cameras,
                scan_extent=0.01,
            )

    @pytest.mark.parametrize(
        "extent, step",
        [(float("nan"), 0.2), (2.0, float("nan")), (0.0, 0.2), (2.0, 0.0), (-2.0, 0.2),
         (2.0, -0.2), (2.0, float("inf"))],
    )
    def test_bad_extent_or_step_rejected(self, cameras, extent, step):
        with pytest.raises(ConfigurationError, match="scan extent and step"):
            acquire_reference(
                TransducerArray(), MediumConfig(), Vec3(25.0, 25.0, 40.0), cameras,
                scan_extent=extent, scan_step=step,
            )

    def test_noise_without_key_rejected(self, cameras):
        # the noise is named by its key, so that reruns agree
        with pytest.raises(ConfigurationError, match="needs a noise_key"):
            acquire_reference(
                TransducerArray(), MediumConfig(), Vec3(25.0, 25.0, 40.0), cameras,
                pixel_noise_sigma=1.0,
            )

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nan_noise_rejected(self, cameras, sigma):
        with pytest.raises(ConfigurationError, match="pixel_noise_sigma"):
            acquire_reference(
                TransducerArray(), MediumConfig(), Vec3(25.0, 25.0, 40.0), cameras,
                pixel_noise_sigma=sigma,
            )


class TestBuildCameraPair:
    def test_rows_match_scaled_jacobian(self):
        vis = SimulatorConfig().vision
        jac, refs = default_calibration()
        cam_h, cam_v = build_camera_pair(vis, (jac, refs))
        assert np.allclose(cam_h.rows_of_j, jac.matrix[:2] * vis.scale)
        assert np.allclose(cam_v.rows_of_j, jac.matrix[2:] * vis.scale)
        assert np.allclose(cam_h.ref_pixel, np.array(refs.points[0].pixel_h) * vis.scale)

    def test_factory_calibration_is_the_default(self):
        vis = SimulatorConfig().vision
        assert build_camera_pair(vis) == build_camera_pair(vis, default_calibration())

    def test_pairs_are_plain_numbers_that_compare_and_hash(self):
        a, b = build_camera_pair(VisionConfig()), build_camera_pair(VisionConfig())
        assert a == b and hash(a) == hash(b) and {a: "pair"}[b] == "pair"
        assert a != build_camera_pair(VisionConfig(noise_sigma=5.0))
        for cam in a:
            assert cam.vision == VisionConfig()
            assert all(type(x) is float for x in (*cam.rows_of_j[0], *cam.rows_of_j[1], *cam.ref_pixel))

    def test_full_scale_keeps_native_values(self):
        jac, refs = default_calibration()
        cam_h, _ = build_camera_pair(VisionConfig(scale=1.0), (jac, refs))
        assert np.allclose(cam_h.rows_of_j, jac.matrix[:2])

    def test_one_point_set_anchors_at_that_point_exactly(self):
        vis = SimulatorConfig().vision
        jac, refs = default_calibration()
        assert len(refs.points) == 1
        (point,) = refs.points
        cam_h, cam_v = build_camera_pair(vis, (jac, refs))
        for cam, pixel in ((cam_h, point.pixel_h), (cam_v, point.pixel_v)):
            assert cam.ref_pixel == tuple((np.array(pixel) * vis.scale).tolist())
            assert cam.ref_world == point.world

    def test_multi_point_set_anchors_at_its_centroid(self):
        vis = VisionConfig(scale=0.5)
        jac, _ = default_calibration()
        refs = ReferenceSet(
            (
                ReferencePoint(Vec3(24.0, 25.0, 40.0), (100.0, 200.0), (300.0, 400.0)),
                ReferencePoint(Vec3(26.0, 27.0, 43.0), (110.0, 230.0), (320.0, 390.0)),
            )
        )
        cam_h, cam_v = build_camera_pair(vis, (jac, refs))
        assert cam_h.ref_pixel == (52.5, 107.5)
        assert cam_v.ref_pixel == (155.0, 197.5)
        assert cam_h.ref_world == cam_v.ref_world == Vec3(25.0, 26.0, 41.5)
