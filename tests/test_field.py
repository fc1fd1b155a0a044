import math
import tracemalloc

import numpy as np
import pytest

from acoustrap import cli, field
from acoustrap.core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    TWO_PI,
    Contrast,
    MediumConfig,
    ParticleState,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    wavelength,
)
from acoustrap.errors import ConfigurationError, GeometryError, SingularityError
from acoustrap.formats import load_hologram_csv, save_hologram_csv
from acoustrap.field import (
    FieldSlice,
    FocusTrap,
    OctahedralTrap,
    PlaneSpec,
    field_slice,
    gorkov_potential_at_points,
    pressure_at_points,
    trap_quality,
    _field,
)
from acoustrap.hologram import PhaseHologram, make_focus_hologram, make_octahedral_hologram

MED = MediumConfig()
ARR = TransducerArray()
LAM = wavelength(MED, ARR)
CENTER = Vec3(25.0, 25.0, 40.0)


def direct_pressure(array, hologram, points, medium, directivity=False):
    """Slow reference: the float64 sum of element terms, one point at a time."""
    lam = wavelength(medium, array)
    k = 2.0 * math.pi / lam
    centres = array.element_centers()
    phi = hologram.phases.reshape(-1)
    out = np.empty(len(points), dtype=complex)
    for n, p in enumerate(points):
        delta = p - centres
        d = np.sqrt(np.sum(delta**2, axis=1))
        terms = array.emission_amplitude * np.exp(1j * (phi - k * d)) / d
        if directivity:
            terms *= np.sinc(array.pitch * delta[:, 0] / (lam * d))
            terms *= np.sinc(array.pitch * delta[:, 1] / (lam * d))
        out[n] = terms.sum()
    return out


def probe_points(seed, n=200):
    """Points spread over the water volume and clustered around CENTER."""
    rng = np.random.default_rng(seed)
    spread = rng.uniform([0.0, 0.0, 1.0], [50.0, 50.0, 60.0], size=(n // 2, 3))
    near = CENTER.as_array() + rng.normal(0.0, 0.5, size=(n - n // 2, 3))
    return np.vstack([spread, near])


@pytest.fixture(scope="module")
def focus_holo():
    return make_focus_hologram(ARR, CENTER, MED)


@pytest.fixture(scope="module")
def octa_holo():
    return make_octahedral_hologram(ARR, CENTER, DEFAULT_OCTAHEDRON_DIAMETER, MED)


class TestPressureModel:
    def test_single_element_amplitude_and_phase(self):
        one = TransducerArray(rows=1, cols=1)
        holo = PhaseHologram(np.zeros((1, 1)))
        point = Vec3(0.5, 0.5, 10.0)  # 10 mm above the only element
        p = pressure_at_points(one, holo, point.as_array()[None, :], MED)[0]
        assert abs(p) == pytest.approx(0.1, rel=1e-12)
        k = TWO_PI / wavelength(MED, one)
        expected_phase = (-k * 10.0) % TWO_PI
        assert np.angle(p) % TWO_PI == pytest.approx(expected_phase, abs=1e-9)

    def test_focus_amplitude_is_coherent_sum(self, focus_holo):
        d = np.linalg.norm(ARR.element_centers() - CENTER.as_array(), axis=1)
        expected = np.sum(ARR.emission_amplitude / d)
        p = pressure_at_points(ARR, focus_holo, CENTER.as_array()[None, :], MED)[0]
        assert abs(p) == pytest.approx(expected, rel=1e-12)

    def test_global_phase_invariance(self, focus_holo):
        shifted = PhaseHologram.from_radians(focus_holo.phases + 1.2345)
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, 0, 5], [50, 50, 55], size=(100, 3))
        a = np.abs(pressure_at_points(ARR, focus_holo, pts, MED))
        b = np.abs(pressure_at_points(ARR, shifted, pts, MED))
        assert np.allclose(a, b, rtol=1e-12)

    def test_singularity_at_element_center(self, focus_holo):
        with pytest.raises(SingularityError):
            pressure_at_points(ARR, focus_holo, np.array([[0.5, 0.5, 0.0]]), MED)

    def test_points_shape_validation(self, focus_holo):
        with pytest.raises(ConfigurationError):
            pressure_at_points(ARR, focus_holo, np.zeros((3, 2)), MED)

    def test_focus_superiority(self, focus_holo):
        rng = np.random.default_rng(7)
        peak = abs(pressure_at_points(ARR, focus_holo, CENTER.as_array()[None, :], MED)[0])
        n = 0
        while n < 1000:
            q = rng.uniform([6.5, 10.0, 25.0], [43.5, 40.0, 55.0], size=(1000, 3))
            far = np.linalg.norm(q - CENTER.as_array(), axis=1) >= LAM
            q = q[far]
            mags = np.abs(pressure_at_points(ARR, focus_holo, q, MED))
            assert np.all(peak >= mags)
            n += q.shape[0]

    def test_directivity_attenuates_off_axis(self, focus_holo):
        on_axis = Vec3(25.0, 25.0, 40.0)
        off_axis = Vec3(47.0, 25.0, 8.0)
        for point in (on_axis, off_axis):
            row = point.as_array()[None, :]
            plain = abs(pressure_at_points(ARR, focus_holo, row, MED)[0])
            piston = abs(pressure_at_points(ARR, focus_holo, row, MED, directivity=True)[0])
            assert piston <= plain + 1e-12


class TestKernel:
    @pytest.mark.parametrize("directivity", [False, True])
    def test_matches_direct_sum(self, octa_holo, directivity):
        pts = probe_points(11)
        got = pressure_at_points(ARR, octa_holo, pts, MED, directivity=directivity)
        ref = direct_pressure(ARR, octa_holo, pts, MED, directivity=directivity)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_gradient_matches_central_differences(self, octa_holo):
        # the last two points lie above element centres
        pts = np.vstack([probe_points(14, n=40), [[0.5, 0.5, 5.0], [25.5, 24.5, 40.0]]])
        p, grad = _field(ARR, octa_holo, pts, MED, gradient=True)
        assert np.array_equal(p, pressure_at_points(ARR, octa_holo, pts, MED))
        h = 1e-5
        central = np.stack(
            [
                (
                    pressure_at_points(ARR, octa_holo, pts + h * e, MED)
                    - pressure_at_points(ARR, octa_holo, pts - h * e, MED)
                )
                / (2 * h)
                for e in np.eye(3)
            ],
            axis=1,
        )
        # truncation error (k h)^2 / 6 is about 1.5e-9 of the gradient
        err = np.linalg.norm(grad - central, axis=1) / np.linalg.norm(central, axis=1)
        assert err.max() < 1e-6

    def test_gradient_refuses_directivity(self, octa_holo):
        with pytest.raises(ConfigurationError, match="no piston directivity"):
            _field(ARR, octa_holo, CENTER.as_array()[None, :], MED, directivity=True, gradient=True)

    def test_worker_count_leaves_results_bit_identical(self, octa_holo, monkeypatch):
        pts = probe_points(15, n=80)  # three chunks of at most 32 points
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(field, "usable_cpus", lambda: cpus)
            p, grad = _field(ARR, octa_holo, pts, MED, gradient=True)
            results.append((p, grad, pressure_at_points(ARR, octa_holo, pts, MED, directivity=True)))
        for one, three in zip(*results):
            assert np.array_equal(one, three)

    @pytest.mark.parametrize("directivity", [False, True])
    def test_point_alone_matches_point_in_chunked_call(self, octa_holo, directivity, monkeypatch):
        monkeypatch.setattr(field, "usable_cpus", lambda: 2)
        per_chunk = field._CHUNK_PAIRS // ARR.element_count
        pts = probe_points(17, n=2 * per_chunk + 6)  # three chunks, the last one shorter
        together = pressure_at_points(ARR, octa_holo, pts, MED, directivity=directivity)
        alone = [
            pressure_at_points(ARR, octa_holo, p[None, :], MED, directivity=directivity)[0]
            for p in pts
        ]
        assert np.array_equal(together, alone)

    def test_directivity_above_element_rows_and_columns(self, focus_holo):
        # x == cx or y == cy makes a sinc argument exactly zero
        centres = ARR.element_centers()
        cx, cy = centres[:, 0].min() + 25.0 * ARR.pitch, centres[:, 1].min() + 10.0 * ARR.pitch
        pts = np.array([[cx, 30.2, 12.0], [7.3, cy, 20.0], [cx, cy, 35.0], [cx, cy, 0.8]])
        got = pressure_at_points(ARR, focus_holo, pts, MED, directivity=True)
        ref = direct_pressure(ARR, focus_holo, pts, MED, directivity=True)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_directivity_past_the_first_sinc_zero(self, focus_holo):
        # low, off-centre points: for most elements |x - cx| / d or |y - cy| / d
        # exceeds lambda / pitch, where the piston factor's half-angle tangent
        # has passed its pole
        pts = np.array([[25.3, 25.7, 2.0], [3.2, 47.9, 1.5], [44.1, 6.6, 4.0], [-6.0, 60.0, 3.0]])
        delta = pts[:, None, :] - ARR.element_centers()
        sin_theta = np.abs(delta[..., :2]) / np.linalg.norm(delta, axis=2)[..., None]
        assert np.mean(np.any(sin_theta > LAM / ARR.pitch, axis=2)) > 0.9
        got = pressure_at_points(ARR, focus_holo, pts, MED, directivity=True)
        ref = direct_pressure(ARR, focus_holo, pts, MED, directivity=True)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_working_memory_is_bounded(self, octa_holo, monkeypatch):
        # two worker threads, each holding five (32, 2500) float64 arrays at
        # its peak, trace about 6.7 MB; chunks of 256 points traced about 51 MB
        monkeypatch.setattr(field, "usable_cpus", lambda: 2)
        pts = probe_points(18, n=2000)
        tracemalloc.start()
        try:
            pressure_at_points(ARR, octa_holo, pts, MED, directivity=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_singularity_in_worker_thread_reaches_caller(self, focus_holo, monkeypatch):
        monkeypatch.setattr(field, "usable_cpus", lambda: 2)
        pts = probe_points(16, n=600)
        pts[-1] = [0.5, 0.5, 0.0]  # an element centre, in the last chunk
        with pytest.raises(SingularityError, match="coincides") as excinfo:
            pressure_at_points(ARR, focus_holo, pts, MED)
        assert excinfo.type is SingularityError


def magnitude_sum(array, points):
    """A * sum(1 / d_i) per point: the element terms' magnitudes summed,
    which also bounds them with directivity (|D_i| <= 1)."""
    d = np.linalg.norm(points[:, None, :] - array.element_centers(), axis=2)
    return array.emission_amplitude * np.sum(1.0 / d, axis=1)


def fold_case(name):
    """Points of one folding call and its (row, column) class counts, None
    for an axis that does not fold; the default array's mirror lines are
    x = 25 and y = 25."""
    a, z = np.meshgrid(np.linspace(15.0, 35.0, 21), np.linspace(5.0, 55.0, 26), indexing="ij")
    a, z = a.ravel(), z.ravel()
    line = np.linspace(1.0, 60.0, 60)
    cases = {
        "xoz_y25": (np.column_stack([a, np.full_like(a, 25.0), z]), (None, 25)),
        "yoz_x25": (np.column_stack([np.full_like(a, 25.0), a, z]), (25, None)),
        "z_line_x25_y25": (np.column_stack([np.full_like(line, 25.0), np.full_like(line, 25.0), line]), (25, 25)),
        # 23 row pairs about x = 23 and the 4 rows beyond x = 46
        "xoz_line_x23": (np.column_stack([np.full_like(line, 23.0), np.full_like(line, 25.0), line]), (27, 25)),
    }
    return cases[name]


class TestFold:
    """Calls whose points share an x or y coordinate fold equidistant
    elements into one source each."""

    @pytest.mark.parametrize("directivity", [False, True])
    @pytest.mark.parametrize("case", ["xoz_y25", "yoz_x25", "z_line_x25_y25", "xoz_line_x23"])
    def test_folded_call_matches_direct_sum(self, octa_holo, case, directivity):
        pts, classes = fold_case(case)
        grid = ARR.element_centers().reshape(ARR.rows, ARR.cols, 3)
        folds = (field._fold_axis(pts[:, 0], grid[:, 0, 0]), field._fold_axis(pts[:, 1], grid[0, :, 1]))
        assert tuple(None if f is None else len(f[1]) for f in folds) == classes
        got = pressure_at_points(ARR, octa_holo, pts, MED, directivity=directivity)
        ref = direct_pressure(ARR, octa_holo, pts, MED, directivity=directivity)
        # The reference rounds phi - k d per element and the fold per class,
        # each to about ulp(k d) ~ 6e-14 rad. Both sums are off the exact one
        # by about 1e-15 of sum |T_i|, which near a null exceeds 1e-12 of |p|.
        tol = 1e-12 * np.abs(ref) + 1e-14 * magnitude_sum(ARR, pts)
        assert np.all(np.abs(got - ref) <= tol)

    @staticmethod
    def _sources_per_chunk(monkeypatch):
        """Record the number of sources each kernel chunk sums over."""
        sources = []

        def recording(pts, **kwargs):
            sources.append(len(kwargs["phases"]))
            return kernel(pts, **kwargs)

        kernel = field._field_chunk
        monkeypatch.setattr(field, "_field_chunk", recording)
        return sources

    @pytest.mark.parametrize("n", [1, 2, 6, 7])
    def test_calls_of_few_points_do_not_fold(self, octa_holo, monkeypatch, n):
        # on both mirror lines, where folding would save the most pairs:
        # from 7 points on, both axes fold to 25 classes; below, the tie
        # search does not run
        pts = np.column_stack([np.full(n, 25.0), np.full(n, 25.0), np.linspace(30.0, 50.0, n)])
        sources = self._sources_per_chunk(monkeypatch)
        searches = []
        fold_axis = field._fold_axis
        monkeypatch.setattr(field, "_fold_axis", lambda *args: searches.append(1) or fold_axis(*args))
        pressure_at_points(ARR, octa_holo, pts, MED)
        assert sources == [ARR.element_count // 4 if n == 7 else ARR.element_count]
        assert len(searches) == (2 if n == 7 else 0)

    def test_slice_band_folds(self, octa_holo, monkeypatch):
        # an 806-point band of an xoz slice on the mirror line y = 25
        sources = self._sources_per_chunk(monkeypatch)
        field_slice(ARR, octa_holo, PlaneSpec("xoz", 25.0), ((20.0, 30.0), (39.0, 41.0)), LAM / 4, MED)
        assert set(sources) == {ARR.element_count // 2}

    def test_folded_slice_is_bit_identical_across_worker_counts(self, octa_holo, monkeypatch):
        # 169 points: three chunks of at most 64 points at 50 x 25 classes
        bounds = ((24.0, 26.0), (39.0, 41.0))
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(field, "usable_cpus", lambda: cpus)
            results.append(
                [
                    field_slice(ARR, octa_holo, PlaneSpec("xoz", 25.0), bounds, LAM / 4, MED, directivity=d).values
                    for d in (False, True)
                ]
            )
        assert results[0][0].size == 169
        for one, three in zip(*results):
            assert np.array_equal(one, three)

    def test_working_memory_is_bounded_when_folded(self, octa_holo, monkeypatch):
        monkeypatch.setattr(field, "usable_cpus", lambda: 2)
        bounds = ((20.0, 23.9), (30.0, 34.9))
        tracemalloc.start()
        try:
            sl = field_slice(ARR, octa_holo, PlaneSpec("xoz", 25.0), bounds, 0.1, MED, directivity=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sl.values.size == 2000
        assert peak < 12e6

    def test_gradient_does_not_fold(self, octa_holo):
        pts = probe_points(19, n=40)
        pts[:, 1] = 25.0
        p, grad = _field(ARR, octa_holo, pts, MED, gradient=True)
        folded = pressure_at_points(ARR, octa_holo, pts, MED)
        # the same sum, rounded per element and per column class
        assert np.all(np.abs(p - folded) <= 1e-13 * np.abs(folded) + 1e-14 * magnitude_sum(ARR, pts))
        h = 1e-5
        central = np.stack(
            [
                (
                    pressure_at_points(ARR, octa_holo, pts + h * e, MED)
                    - pressure_at_points(ARR, octa_holo, pts - h * e, MED)
                )
                / (2 * h)
                for e in np.eye(3)
            ],
            axis=1,
        )
        err = np.linalg.norm(grad - central, axis=1) / np.linalg.norm(central, axis=1)
        assert err.max() < 1e-6

    def test_cli_default_plane_matches_direct_sum(self, octa_holo, tmp_path):
        # without --offset the xoz plane runs through the workspace centre,
        # on the array's mirror line y = 25
        holo_csv, out = tmp_path / "hologram.csv", tmp_path / "field"
        save_hologram_csv(holo_csv, octa_holo)
        argv = ["field", "--hologram", str(holo_csv), "--plane", "xoz", "--resolution", "1", "--out-dir", str(out)]
        with pytest.warns(UserWarning, match="quarter wavelength"):
            rc = cli.main(argv)
        assert rc == 0
        assert (out / "slice.csv").read_text().startswith("# plane=xoz offset=25 ")
        table = np.loadtxt(out / "slice.csv", delimiter=",")
        rows = table[np.random.default_rng(20).choice(len(table), 50, replace=False)]
        pts = np.column_stack([rows[:, 0], np.full(len(rows), 25.0), rows[:, 1]])
        ref = direct_pressure(ARR, load_hologram_csv(holo_csv), pts, MED)
        # 9 significant digits per written value
        np.testing.assert_allclose(rows[:, 2] + 1j * rows[:, 3], ref, rtol=1e-8, atol=0)
        np.testing.assert_allclose(rows[:, 4], np.abs(ref), rtol=1e-8, atol=0)


class TestFieldSlice:
    def test_world_point_and_axis_coords_agree(self, focus_holo):
        sl = field_slice(
            ARR, focus_holo, PlaneSpec("xoz", 25.0), ((24.0, 26.0), (39.0, 41.0)), LAM / 4, MED
        )
        a, b = sl.axis_coords()
        w = sl.world_point(1, 2)
        assert w.x == pytest.approx(a[1])
        assert w.z == pytest.approx(b[2])
        assert w.y == pytest.approx(25.0)

    @pytest.mark.parametrize(
        "plane,fixed_axis", [("xoy", "z"), ("xoz", "y"), ("yoz", "x")]
    )
    def test_plane_fixed_axis(self, focus_holo, plane, fixed_axis):
        sl = field_slice(
            ARR, focus_holo, PlaneSpec(plane, 33.0), ((24.0, 25.0), (35.0, 36.0)), LAM / 4, MED
        )
        w = sl.world_point(0, 0)
        assert getattr(w, fixed_axis) == pytest.approx(33.0)

    def test_coarse_resolution_warns_but_produces(self, focus_holo):
        with pytest.warns(UserWarning, match="quarter wavelength"):
            sl = field_slice(
                ARR, focus_holo, PlaneSpec("xoy", 40.0), ((24.0, 26.0), (24.0, 26.0)), 1.0, MED
            )
        assert isinstance(sl, FieldSlice)
        assert np.all(np.isfinite(sl.magnitude()))

    def test_degenerate_bounds_rejected(self, focus_holo):
        with pytest.raises(ConfigurationError):
            field_slice(
                ARR, focus_holo, PlaneSpec("xoy", 40.0), ((26.0, 24.0), (24.0, 26.0)), 0.1, MED
            )

    def test_grid_outside_tank_rejected(self, focus_holo):
        ws = WorkspaceConfig()
        with pytest.raises(GeometryError):
            field_slice(
                ARR,
                focus_holo,
                PlaneSpec("xoy", 40.0),
                ((-50.0, 0.0), (0.0, 10.0)),
                0.15,
                MED,
                workspace=ws,
            )

    def test_oversized_grid_rejected_before_allocation(self, focus_holo):
        # (50 mm / 0.16 um)^2 is about 1e11 points: numpy would raise
        # MemoryError building the grid, so reaching this error proves the
        # count is checked first
        with pytest.raises(ConfigurationError, match="limit of 2,000,000"):
            field_slice(
                ARR, focus_holo, PlaneSpec("xoy", 40.0), ((0.0, 50.0), (0.0, 50.0)), 1.6e-4, MED
            )

    def test_nan_resolution_rejected(self, focus_holo):
        with pytest.raises(ConfigurationError, match="resolution"):
            field_slice(
                ARR, focus_holo, PlaneSpec("xoy", 40.0), ((24.0, 26.0), (24.0, 26.0)), math.nan, MED
            )

    def test_unknown_plane_rejected(self):
        with pytest.raises(ConfigurationError):
            PlaneSpec("abc", 0.0)


class TestTrapQuality:
    def test_focus_widths_match_baseline(self, focus_holo):
        q = trap_quality(ARR, focus_holo, FocusTrap(CENTER), MED)
        assert q.lateral_fwhm == pytest.approx(0.7407, rel=0.10)
        assert q.axial_fwhm == pytest.approx(4.0645, rel=0.10)
        assert q.axial_fwhm > q.lateral_fwhm
        # the scanned peak can beat the commanded point slightly: the
        # intensity maximum of a finite aperture shifts toward the array
        at_focus = abs(pressure_at_points(ARR, focus_holo, CENTER.as_array()[None, :], MED)[0])
        assert at_focus <= q.focal_peak <= at_focus * 1.005

    def test_focus_peak_is_local_max(self, focus_holo):
        q = trap_quality(ARR, focus_holo, FocusTrap(CENTER), MED)
        off = abs(pressure_at_points(ARR, focus_holo, np.array([[25.0 + LAM, 25.0, 40.0]]), MED)[0])
        assert q.focal_peak >= off

    def test_octahedral_null_at_default_geometry(self, octa_holo, trap_baseline):
        trap = OctahedralTrap(CENTER, DEFAULT_OCTAHEDRON_DIAMETER)
        q = trap_quality(ARR, octa_holo, trap, MED)
        base = trap_baseline["default_span"]
        assert q.contrast_ratio < 0.2
        assert q.center_magnitude < min(q.vertex_magnitudes)
        assert q.contrast_ratio == pytest.approx(base["contrast_ratio"], rel=0.10)
        assert q.center_magnitude == pytest.approx(base["center_magnitude"], rel=0.10)
        assert np.allclose(q.vertex_magnitudes, base["vertex_magnitudes"], rtol=0.10)

    def test_off_optimum_span_fills_the_null(self, trap_baseline):
        # the contrast optimum is span-sensitive: one tenth of a wavelength
        # away the center/vertex ratio degrades by an order of magnitude
        base = trap_baseline["reference_span"]
        d = base["diameter_mm"]
        holo = make_octahedral_hologram(ARR, CENTER, d, MED)
        q = trap_quality(ARR, holo, OctahedralTrap(CENTER, d), MED)
        assert q.contrast_ratio == pytest.approx(base["contrast_ratio"], rel=0.10)
        assert q.contrast_ratio > 1.0

    def test_zero_diameter_ratio_is_one(self, focus_holo):
        q = trap_quality(ARR, focus_holo, OctahedralTrap(CENTER, 0.0), MED)
        assert q.contrast_ratio == pytest.approx(1.0, abs=1e-12)
        assert q.center_magnitude == pytest.approx(min(q.vertex_magnitudes), rel=1e-12)


class TestGorkovPotential:
    def test_negative_contrast_minimum_at_focus(self, focus_holo):
        particle = ParticleState(
            position=CENTER, diameter_um=300.0, contrast=Contrast.NEGATIVE
        )
        z = np.arange(-8, 9) * LAM / 10.0
        pts = CENTER.as_array() + np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)
        u = gorkov_potential_at_points(ARR, focus_holo, pts, MED, particle)
        assert abs(z[int(u.argmin())]) <= LAM / 4

    def test_positive_contrast_minimum_at_cage_center(self, octa_holo):
        particle = ParticleState(position=CENTER, diameter_um=300.0)
        span = np.arange(-4, 5) * LAM / 10.0
        grid = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
        u = gorkov_potential_at_points(ARR, octa_holo, CENTER.as_array() + grid, MED, particle)
        offset = np.linalg.norm(grid[int(u.argmin())])
        assert offset <= LAM / 4

    def test_large_particle_warns(self, focus_holo):
        particle = ParticleState(position=CENTER, diameter_um=400.0)
        with pytest.warns(UserWarning, match="half a wavelength"):
            gorkov_potential_at_points(ARR, focus_holo, CENTER.as_array()[None, :], MED, particle)

    def test_stencil_outside_tank_rejected(self, focus_holo):
        particle = ParticleState(position=CENTER, diameter_um=300.0)
        ws = WorkspaceConfig()
        near_floor = np.array([[25.0, 25.0, 0.005]])
        with pytest.raises(GeometryError):
            gorkov_potential_at_points(
                ARR, focus_holo, near_floor, MED, particle, workspace=ws
            )

    def test_wall_margin_is_the_particle_radius(self, focus_holo):
        particle = ParticleState(position=CENTER, diameter_um=300.0)
        ws = WorkspaceConfig()
        with pytest.raises(GeometryError, match="particle radius"):
            gorkov_potential_at_points(
                ARR, focus_holo, np.array([[25.0, 25.0, 0.1]]), MED, particle, workspace=ws
            )
        u = gorkov_potential_at_points(
            ARR, focus_holo, np.array([[25.0, 25.0, 0.2]]), MED, particle, workspace=ws
        )
        assert np.all(np.isfinite(u))

    def test_volume_scales_potential_not_argmin(self, focus_holo):
        small = ParticleState(position=CENTER, diameter_um=100.0, contrast=Contrast.NEGATIVE)
        large = ParticleState(position=CENTER, diameter_um=200.0, contrast=Contrast.NEGATIVE)
        pts = CENTER.as_array() + np.array([[0.0, 0.0, dz] for dz in (-0.1, 0.0, 0.1)])
        u_small = gorkov_potential_at_points(ARR, focus_holo, pts, MED, small)
        u_large = gorkov_potential_at_points(ARR, focus_holo, pts, MED, large)
        assert np.allclose(u_large, u_small * 8.0, rtol=1e-9)
