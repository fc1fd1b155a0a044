import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acoustrap.core import TWO_PI, MediumConfig, TransducerArray, Vec3, wavelength
from acoustrap.errors import ConfigurationError, GeometryError
from acoustrap.hologram import (
    FocusTrap,
    OctahedralTrap,
    PhaseHologram,
    ib_baseline_hologram,
    make_focus_hologram,
    make_octahedral_hologram,
    octahedron_vertexes,
    trap_anchor,
    wrap_phase,
)

MED = MediumConfig()
ARR = TransducerArray()
CENTER = Vec3(25.0, 25.0, 40.0)
# 7x11 elements on a non-unit pitch, with the aperture corner off the frame origin.
OFFSET_ARR = TransducerArray(rows=7, cols=11, pitch=1.3, origin=Vec3(1.0, -2.0, 0.5))


def arrival_residuals(array, hologram, point, medium):
    """Distance of each element's arrival phase from 0 (mod 2*pi)."""
    k = TWO_PI / wavelength(medium, array)
    d = np.linalg.norm(array.element_centers() - point.as_array(), axis=1)
    arrival = np.mod(hologram.phases.ravel() - k * d, TWO_PI)
    return np.minimum(arrival, TWO_PI - arrival)


class TestWrapPhase:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range_half_open(self, x):
        w = float(wrap_phase(x))
        assert 0.0 <= w < TWO_PI

    @given(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=-5, max_value=5),
    )
    def test_period_invariance(self, x, n):
        a = float(wrap_phase(x))
        b = float(wrap_phase(x + n * TWO_PI))
        delta = abs(a - b)
        assert min(delta, TWO_PI - delta) < 1e-9

    def test_vectorized(self):
        out = wrap_phase(np.array([-0.1, 0.0, TWO_PI, 7.0]))
        assert out.shape == (4,)
        assert np.all((out >= 0.0) & (out < TWO_PI))


class TestPhaseHologram:
    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            PhaseHologram(np.full((2, 3), 7.0))
        with pytest.raises(ConfigurationError):
            PhaseHologram(np.full((2, 3), -0.1))

    def test_rejects_non_finite_and_non_2d(self):
        with pytest.raises(ConfigurationError):
            PhaseHologram(np.array([[0.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            PhaseHologram(np.zeros(6))

    def test_from_radians_wraps(self):
        h = PhaseHologram.from_radians(np.full((2, 2), -np.pi))
        assert np.allclose(h.phases, np.pi)

    def test_immutability(self):
        h = PhaseHologram.from_radians(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            h.phases[0, 0] = 1.0


class TestTrapSpecs:
    def test_trap_anchor(self):
        assert trap_anchor(FocusTrap(CENTER)) == CENTER
        assert trap_anchor(OctahedralTrap(CENTER, 2.0)) == CENTER

    def test_octahedral_rejects_negative_diameter(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="diameter"):
                OctahedralTrap(CENTER, bad)


class TestFocusHologram:
    def test_arrival_phases_align(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = Vec3(*(rng.uniform([6.5, 10.0, 25.0], [43.5, 40.0, 55.0])))
            holo = make_focus_hologram(ARR, p, MED)
            assert arrival_residuals(ARR, holo, p, MED).max() < 1e-9

    def test_shape_matches_array(self):
        holo = make_focus_hologram(ARR, CENTER, MED)
        assert holo.phases.shape == (ARR.rows, ARR.cols)

    @pytest.mark.parametrize("z", [0.0, -5.0])
    def test_rejects_focus_at_or_below_array(self, z):
        with pytest.raises(GeometryError):
            make_focus_hologram(ARR, Vec3(25.0, 25.0, z), MED)


class TestOctahedronVertexes:
    def test_order_and_values(self):
        v = octahedron_vertexes(CENTER, 2.4)
        assert v[0] == Vec3(26.2, 25.0, 40.0)
        assert v[1] == Vec3(23.8, 25.0, 40.0)
        assert v[2] == Vec3(25.0, 26.2, 40.0)
        assert v[3] == Vec3(25.0, 23.8, 40.0)
        assert v[4] == Vec3(25.0, 25.0, 41.2)
        assert v[5] == Vec3(25.0, 25.0, 38.8)

    def test_rejects_negative(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="octahedron diameter"):
                octahedron_vertexes(CENTER, bad)


class TestMultiplexedHologram:
    def test_arrival_phase_at_own_vertex(self):
        # element (i, j) serves vertex (i mod 2) * 3 + (j mod 3)
        for array in (ARR, OFFSET_ARR):
            center = array.origin + Vec3(4.0, 5.0, 30.0)
            holo = make_octahedral_hologram(array, center, 2.4, MED)
            verts = np.array([v.as_array() for v in octahedron_vertexes(center, 2.4)])
            i, j = np.indices((array.rows, array.cols))
            own = verts[((i % 2) * 3 + j % 3).ravel()]
            d = np.linalg.norm(array.element_centers() - own, axis=1)
            arrival = np.mod(holo.phases.ravel() - TWO_PI / wavelength(MED, array) * d, TWO_PI)
            assert np.minimum(arrival, TWO_PI - arrival).max() < 1e-9

    def test_zero_diameter_degenerates_to_focus(self):
        octa = make_octahedral_hologram(ARR, CENTER, 0.0, MED)
        focus = make_focus_hologram(ARR, CENTER, MED)
        assert np.array_equal(octa.phases, focus.phases)

    def test_vertex_below_plane_rejected(self):
        with pytest.raises(GeometryError):
            make_octahedral_hologram(ARR, Vec3(25.0, 25.0, 0.5), 2.4, MED)

    def test_too_small_array_rejected(self):
        for rows, cols in ((1, 3), (2, 2)):
            with pytest.raises(ConfigurationError, match="too small for 2x3"):
                make_octahedral_hologram(TransducerArray(rows=rows, cols=cols), CENTER, 2.4, MED)


class TestIterativeBaseline:
    def test_single_target_reduces_to_focus(self):
        focus = make_focus_hologram(ARR, CENTER, MED)
        result = ib_baseline_hologram(ARR, [CENTER], MED, iterations=3)
        # identical up to one global phase constant
        z = np.exp(1j * (result.hologram.phases - focus.phases))
        resid = np.angle(z * np.exp(-1j * np.angle(z.sum())))
        assert np.abs(resid).max() < 1e-6
        # and the arrival phases themselves are mutually aligned
        spread = arrival_residuals(ARR, result.hologram, CENTER, MED)
        assert spread.max() - spread.min() < 1e-6

    def test_cost_history_monotone_for_six_targets(self):
        targets = list(octahedron_vertexes(CENTER, 2.4))
        result = ib_baseline_hologram(ARR, targets, MED, iterations=60)
        costs = np.array(result.cost_history)
        assert costs.shape == (60,)
        assert np.all(np.diff(costs) <= 1e-9)

    def test_cost_is_negative_target_amplitude_sum(self):
        from acoustrap.field import pressure_at_points

        result = ib_baseline_hologram(ARR, [CENTER], MED, iterations=5)
        p = pressure_at_points(ARR, result.hologram, CENTER.as_array()[None, :], MED)
        assert result.cost_history[-1] == pytest.approx(-np.abs(p).sum(), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ib_baseline_hologram(ARR, [], MED)
        with pytest.raises(ConfigurationError):
            ib_baseline_hologram(ARR, [CENTER], MED, iterations=0)
        with pytest.raises(GeometryError):
            ib_baseline_hologram(ARR, [Vec3(25.0, 25.0, -1.0)], MED)


GOLDEN_DIGESTS = {
    "default": "90879c0d23d362e1e4bd36e63f6405c739489702cd8df5f9ad631d128151e62c",
    "offset": "ec84b2f235f64ef7e079af2ef2a5ada77730b23d68691bd009f4e1fe18c7b736",
}


def _hologram_digest(array, seed, count=300):
    """sha256 over the phases of a focus and a cage hologram per seeded
    target; every 25th span is zero (the cage's focus path)."""
    rng = np.random.default_rng(seed)
    o = array.origin.as_array()
    ax, ay = array.rows * array.pitch, array.cols * array.pitch
    lo = o + [-0.2 * ax, -0.2 * ay, 6.0]
    hi = o + [1.2 * ax, 1.2 * ay, 50.0]
    points = rng.uniform(lo, hi, size=(count, 3))
    spans = rng.uniform(0.0, 5.0, size=count)
    spans[::25] = 0.0
    h = hashlib.sha256()
    for p, span in zip(points, spans):
        target = Vec3.from_array(p)
        h.update(make_focus_hologram(array, target, MED).phases.tobytes())
        h.update(make_octahedral_hologram(array, target, float(span), MED).phases.tobytes())
    return h.hexdigest()


def test_holograms_match_golden_digest():
    # the closed-form routes are exact float64 arithmetic: a refactor must
    # reproduce every phase bit for bit
    assert _hologram_digest(ARR, 9) == GOLDEN_DIGESTS["default"]
    assert _hologram_digest(OFFSET_ARR, 10) == GOLDEN_DIGESTS["offset"]
