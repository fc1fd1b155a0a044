import json

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
    save_calibration,
)
from acoustrap.config import SimulatorConfig, VisionConfig
from acoustrap.core import MediumConfig, TransducerArray, Vec3
from acoustrap.errors import CalibrationError, ConfigurationError
from acoustrap.field import pressure_at_points
from acoustrap.hologram import make_focus_hologram

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
        jac = JacobianMatrix(FACTORY_J)
        delta = np.array([120.0, -340.0, 55.0])
        pix = FACTORY_J @ delta
        back = jac.pseudo_inverse() @ pix
        assert np.allclose(back, delta, atol=1e-9)

    def test_condition_number_finite(self):
        jac = JacobianMatrix(FACTORY_J)
        assert 1.0 <= jac.condition_number < 10.0

    def test_camera_rows(self):
        jac = JacobianMatrix(FACTORY_J)
        assert np.allclose(jac.camera_rows("h"), FACTORY_J[:2])
        assert np.allclose(jac.camera_rows("v"), FACTORY_J[2:])

    def test_scaled(self):
        jac = JacobianMatrix(FACTORY_J)
        assert np.allclose(jac.scaled(0.25).matrix, FACTORY_J * 0.25)


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
    def test_round_trip_exact(self):
        jac, refs = default_calibration()
        rng = np.random.default_rng(0)
        c_pix = refs.pixel_centroid
        for _ in range(50):
            p = Vec3(*rng.uniform([6.5, 10.0, 25.0], [43.5, 40.0, 55.0]))
            d_um = (p.as_array() - refs.world_centroid.as_array()) * 1e3
            pix = c_pix + jac.matrix @ d_um
            got = localize(jac, refs, (pix[0], pix[1]), (pix[2], pix[3]))
            assert got.distance_to(p) < 1e-9

    def test_reference_maps_to_itself(self):
        jac, refs = default_calibration()
        c = refs.pixel_centroid
        got = localize(jac, refs, (c[0], c[1]), (c[2], c[3]))
        assert got.distance_to(refs.world_centroid) < 1e-12


class TestCalibrateJacobian:
    def _synthetic_pairs(self, jac, n, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n):
            move = rng.uniform(-500.0, 500.0, 3)  # um
            shift = jac @ move + rng.normal(0.0, noise, 4)
            pairs.append((move, shift))
        return pairs

    def test_recovers_factory_matrix_noiselessly(self):
        result = calibrate_jacobian(self._synthetic_pairs(FACTORY_J, 12))
        assert np.allclose(result.jacobian.matrix, FACTORY_J, atol=1e-12)
        assert result.residual_rms < 1e-12

    def test_noise_attenuates_with_many_pairs(self):
        result = calibrate_jacobian(self._synthetic_pairs(FACTORY_J, 60, noise=0.5, seed=3))
        assert np.abs(result.jacobian.matrix - FACTORY_J).max() < 0.002
        assert result.residual_rms == pytest.approx(0.5, rel=0.5)

    def test_requires_three_pairs(self):
        with pytest.raises(CalibrationError, match="at least 3"):
            calibrate_jacobian(self._synthetic_pairs(FACTORY_J, 2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_pairs_name_a_missed_direction(self, n):
        with pytest.raises(CalibrationError, match="direction"):
            calibrate_jacobian(self._synthetic_pairs(FACTORY_J, n))

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

    def test_scaled(self):
        _, refs = default_calibration()
        half = refs.scaled(0.5)
        assert np.allclose(half.pixel_centroid, refs.pixel_centroid * 0.5)
        assert half.world_centroid == refs.world_centroid


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
        from acoustrap.vision import project

        u, v = project(cameras[0], ref.world)
        assert (u, v) == pytest.approx(ref.pixel_h, abs=1e-6)

    def test_noise_injects_into_pixels(self, cameras):
        arr, med = TransducerArray(), MediumConfig()
        focus = Vec3(25.0, 25.0, 40.0)
        a = acquire_reference(
            arr, med, focus, cameras, scan_extent=0.5, scan_step=0.25,
            pixel_noise_sigma=1.0, rng=np.random.default_rng(1),
        )
        b = acquire_reference(
            arr, med, focus, cameras, scan_extent=0.5, scan_step=0.25,
            pixel_noise_sigma=1.0, rng=np.random.default_rng(2),
        )
        assert a.pixel_h != b.pixel_h

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

    def test_search_evaluates_few_kernel_points(self, cameras, monkeypatch):
        from acoustrap import calibration

        sizes = []

        def counting(array, holo, pts, medium, **kwargs):
            sizes.append(len(pts))
            return pressure_at_points(array, holo, pts, medium, **kwargs)

        monkeypatch.setattr(calibration, "pressure_at_points", counting)
        acquire_reference(TransducerArray(), MediumConfig(), Vec3(24.0, 23.0, 37.0), cameras)
        assert max(sizes) <= 6
        assert sum(sizes) <= 200

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

    def test_noise_without_rng_rejected(self, cameras):
        # an unseeded generator would give different pixels on every call
        with pytest.raises(ConfigurationError, match="seeded rng"):
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
        cam_h, cam_v = build_camera_pair(vis, jac, refs)
        assert np.allclose(cam_h.rows_of_j, jac.matrix[:2] * vis.scale)
        assert np.allclose(cam_v.rows_of_j, jac.matrix[2:] * vis.scale)
        assert np.allclose(cam_h.ref_pixel, np.array(refs.points[0].pixel_h) * vis.scale)

    def test_full_scale_keeps_native_values(self):
        jac, refs = default_calibration()
        cam_h, _ = build_camera_pair(VisionConfig(scale=1.0), jac, refs)
        assert np.allclose(cam_h.rows_of_j, jac.matrix[:2])

    def test_one_point_set_anchors_at_that_point_exactly(self):
        vis = SimulatorConfig().vision
        jac, refs = default_calibration()
        assert len(refs.points) == 1
        (point,) = refs.points
        cam_h, cam_v = build_camera_pair(vis, jac, refs)
        for cam, pixel in ((cam_h, point.pixel_h), (cam_v, point.pixel_v)):
            assert cam.ref_pixel.tolist() == (np.array(pixel) * vis.scale).tolist()
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
        cam_h, cam_v = build_camera_pair(vis, jac, refs)
        assert cam_h.ref_pixel.tolist() == [52.5, 107.5]
        assert cam_v.ref_pixel.tolist() == [155.0, 197.5]
        assert cam_h.ref_world == cam_v.ref_world == Vec3(25.0, 26.0, 41.5)
