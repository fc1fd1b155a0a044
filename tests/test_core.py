import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acoustrap.core import (
    MAX_LATENCY_S,
    MAX_PARTICLE_DIAMETER_UM,
    Contrast,
    MediumConfig,
    ParticleState,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    wavelength,
)
from acoustrap.errors import (
    AcoustrapError,
    CalibrationError,
    ConfigurationError,
    GeometryError,
    SingularityError,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestVec3:
    @given(finite, finite, finite, finite, finite, finite)
    def test_add_sub_roundtrip(self, ax, ay, az, bx, by, bz):
        a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
        back = (a + b) - b
        assert back.distance_to(a) <= 1e-6 * (1 + a.norm() + b.norm())

    def test_scalar_multiply_both_sides(self):
        v = Vec3(1.0, -2.0, 3.0)
        assert (2.0 * v) == (v * 2.0) == Vec3(2.0, -4.0, 6.0)

    def test_norm_and_distance(self):
        assert Vec3(3.0, 4.0, 0.0).norm() == pytest.approx(5.0)
        assert Vec3(1.0, 1.0, 1.0).distance_to(Vec3(1.0, 1.0, 2.0)) == pytest.approx(1.0)

    def test_array_roundtrip(self):
        v = Vec3(0.25, -1.5, 40.0)
        assert Vec3.from_array(v.as_array()) == v

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "text"])
    def test_rejects_non_finite_components(self, bad):
        # from_array is the checked constructor; arithmetic does not check
        with pytest.raises(ConfigurationError, match="expected three"):
            Vec3.from_array([0.0, bad, 0.0])
        assert Vec3.from_array(["1", "2.5e1", 3]) == Vec3(1.0, 25.0, 3.0)


class TestContrast:
    def test_parse_known_names(self):
        assert Contrast.parse("positive") is Contrast.POSITIVE
        assert Contrast.parse("Negative") is Contrast.NEGATIVE

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            Contrast.parse("neutral")


class TestTransducerArray:
    def test_defaults(self):
        arr = TransducerArray()
        assert (arr.rows, arr.cols) == (50, 50)
        assert arr.pitch == 1.0
        assert arr.frequency == 2.3e6

    def test_element_centers_cover_aperture(self):
        arr = TransducerArray()
        centers = arr.element_centers()
        assert centers.shape == (2500, 3)
        assert centers[:, 2].max() == 0.0 == centers[:, 2].min()
        assert centers[:, 0].min() == pytest.approx(0.5)
        assert centers[:, 0].max() == pytest.approx(49.5)
        # aperture is centered on (25, 25)
        assert centers[:, :2].mean(axis=0) == pytest.approx([25.0, 25.0])
        # built once per array and shared read-only
        assert TransducerArray().element_centers() is centers
        with pytest.raises(ValueError):
            centers[0, 0] = 1.0

    def test_element_center_matches_flat_index(self):
        arr = TransducerArray(rows=4, cols=7, pitch=1.5, origin=Vec3(-2.0, 3.0, 0.5))
        centers = arr.element_centers()
        for i, j in [(0, 0), (0, 6), (3, 0), (2, 5)]:
            expected = [-2.0 + (i + 0.5) * 1.5, 3.0 + (j + 0.5) * 1.5, 0.5]
            assert np.allclose(centers[i * arr.cols + j], expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransducerArray(rows=0)
        with pytest.raises(ConfigurationError):
            TransducerArray(pitch=-1.0)
        with pytest.raises(ConfigurationError):
            TransducerArray(frequency=0.0)
        with pytest.raises(ConfigurationError, match="array.pitch"):
            TransducerArray(pitch=1e300)
        with pytest.raises(ConfigurationError, match="array.origin"):
            TransducerArray(origin=Vec3(0.0, -1e300, 0.0))


class TestMediumAndWaves:
    def test_wavelength_in_water(self):
        lam = wavelength(MediumConfig(), TransducerArray())
        assert lam == pytest.approx(0.6521739130434783, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MediumConfig(sound_speed=0.0)
        with pytest.raises(ConfigurationError):
            MediumConfig(density=-1.0)


class TestTimingConfig:
    def test_frame_interval_and_horizon(self):
        t = TimingConfig()
        assert t.camera_fps == 15.0
        assert t.poh_update_fps == 11.0
        assert t.horizon == pytest.approx(0.150)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(camera_fps=0.0)
        with pytest.raises(ConfigurationError):
            TimingConfig(t_dip=-0.1)

    @pytest.mark.parametrize("field", ["t_dip", "t_trans"])
    def test_latency_bounded(self, field):
        assert getattr(TimingConfig(**{field: MAX_LATENCY_S}), field) == MAX_LATENCY_S
        for value in (MAX_LATENCY_S * 1.01, 1e308, float("inf")):
            with pytest.raises(ConfigurationError, match=f"timing.{field} must be within"):
                TimingConfig(**{field: value})


class TestParticleState:
    def test_defaults(self):
        p = ParticleState(position=Vec3(25.0, 25.0, 40.0))
        assert p.diameter_um == 400.0
        assert p.contrast is Contrast.POSITIVE
        assert p.velocity == Vec3(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("d", [0.0, -5.0, MAX_PARTICLE_DIAMETER_UM + 1])
    def test_diameter_bounds(self, d):
        with pytest.raises(ConfigurationError):
            ParticleState(position=Vec3(0, 0, 1), diameter_um=d)

    def test_diameter_upper_bound_inclusive(self):
        ParticleState(position=Vec3(0, 0, 1), diameter_um=MAX_PARTICLE_DIAMETER_UM)


class TestWorkspaceConfig:
    def test_defaults_nested_in_tank(self):
        ws = WorkspaceConfig()
        assert ws.contains(ws.center)
        assert ws.tank_contains_points(ws.center.as_array())
        assert ws.contains(Vec3(6.5, 10.0, 25.0))
        assert not ws.contains(Vec3(6.4, 10.0, 25.0))

    def test_tank_contains_points_all_rows(self):
        ws = WorkspaceConfig()
        good = np.array([[25.0, 25.0, 40.0], [10.0, 10.0, 5.0]])
        assert ws.tank_contains_points(good)
        assert not ws.tank_contains_points(np.array([[25.0, 25.0, 40.0], [25.0, 25.0, -1.0]]))

    def test_rejects_workspace_outside_tank(self):
        with pytest.raises(ConfigurationError):
            WorkspaceConfig(extent=Vec3(1000.0, 30.0, 30.0))

    def test_rejects_workspace_touching_array_plane(self):
        with pytest.raises(ConfigurationError):
            WorkspaceConfig(center=Vec3(25.0, 25.0, 10.0), extent=Vec3(10.0, 10.0, 20.0))


class TestErrorHierarchy:
    def test_all_domain_errors_share_base(self):
        for exc in (ConfigurationError, GeometryError, CalibrationError):
            assert issubclass(exc, AcoustrapError)
        assert issubclass(SingularityError, GeometryError)
