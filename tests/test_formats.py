import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acoustrap.core import Contrast, MediumConfig, ParticleState, TransducerArray, Vec3
from acoustrap.errors import ConfigurationError
from acoustrap.field import FieldSlice, PlaneSpec, field_slice
from acoustrap.formats import (
    MANIFEST_NAME,
    load_frame_pgm,
    load_hologram_csv,
    load_pgm,
    save_field_slice_csv,
    save_hologram_csv,
    save_pgm,
    slice_magnitude_pgm,
    write_manifest,
)
from acoustrap.hologram import PhaseHologram, make_focus_hologram
from acoustrap.vision import render_frame


@pytest.fixture(scope="module")
def hologram():
    return make_focus_hologram(TransducerArray(), Vec3(25.0, 25.0, 40.0), MediumConfig())


class TestHologramCsv:
    def test_round_trip(self, tmp_path, hologram):
        path = tmp_path / "holo.csv"
        save_hologram_csv(path, hologram)
        back = load_hologram_csv(path)
        assert back.phases.shape == (50, 50)
        # 9 significant digits keep phases to ~1e-8 rad
        assert np.max(np.abs(back.phases - hologram.phases)) < 1e-7

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
        )
    )
    def test_any_phases_round_trip(self, tmp_path_factory, phases):
        path = tmp_path_factory.mktemp("holo") / "holo.csv"
        save_hologram_csv(path, PhaseHologram(phases))
        back = load_hologram_csv(path).phases
        assert back.shape == phases.shape
        # 9 significant digits; a phase just below 2*pi may come back wrapped to ~0
        gap = np.abs(back - phases)
        assert np.all(np.minimum(gap, 2.0 * np.pi - gap) < 1e-8)

    def test_deterministic_bytes(self, tmp_path, hologram):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_hologram_csv(p1, hologram)
        save_hologram_csv(p2, hologram)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_values_stay_in_range(self, tmp_path, hologram):
        path = tmp_path / "holo.csv"
        save_hologram_csv(path, hologram)
        back = load_hologram_csv(path)
        assert np.all(back.phases >= 0.0)
        assert np.all(back.phases < 2.0 * np.pi)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\nnot,a,number\n")
        with pytest.raises(ConfigurationError, match="cannot load hologram"):
            load_hologram_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_hologram_csv(tmp_path / "absent.csv")


class TestPgm:
    def test_uint8_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        path = tmp_path / "img8.pgm"
        save_pgm(path, img)
        assert np.array_equal(load_pgm(path), img)

    def test_uint16_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 65536, size=(9, 4), dtype=np.uint16)
        path = tmp_path / "img16.pgm"
        save_pgm(path, img)
        back = load_pgm(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, img)

    def test_header_values(self, tmp_path):
        img = np.zeros((3, 7), dtype=np.uint8)
        path = tmp_path / "hdr.pgm"
        save_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n7 3\n255\n")

    def test_rejects_bad_dtype_and_shape(self, tmp_path):
        with pytest.raises(ConfigurationError, match="uint8 or uint16"):
            save_pgm(tmp_path / "f.pgm", np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(ConfigurationError, match="2-D"):
            save_pgm(tmp_path / "f.pgm", np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"PNG not really")
        with pytest.raises(ConfigurationError, match="not a binary PGM"):
            load_pgm(path)

    def test_frame_round_trip(self, tmp_path, cameras):
        cam_h, _ = cameras
        particle = ParticleState(
            Vec3(25.0, 25.0, 40.0), Vec3(0, 0, 0), 400.0, Contrast.POSITIVE
        )
        frame = render_frame(cam_h, particle, seed=42)
        path = tmp_path / "frame.pgm"
        save_pgm(path, frame.pixels)
        back = load_frame_pgm(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_frame_requires_8bit(self, tmp_path):
        save_pgm(tmp_path / "deep.pgm", np.zeros((4, 4), dtype=np.uint16))
        with pytest.raises(ConfigurationError, match="8-bit"):
            load_frame_pgm(tmp_path / "deep.pgm")


@pytest.fixture(scope="module")
def small_slice(hologram):
    return field_slice(
        TransducerArray(),
        hologram,
        PlaneSpec("xoz", 25.0),
        bounds=((24.0, 26.0), (39.0, 41.0)),
        resolution=0.15,
        medium=MediumConfig(),
    )


class TestFieldSliceCsv:
    def test_round_trip(self, tmp_path, small_slice):
        path = tmp_path / "slice.csv"
        save_field_slice_csv(path, small_slice)
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        a, b = small_slice.axis_coords()
        assert np.allclose(table[:, 0], np.repeat(a, b.size), rtol=1e-9)
        assert np.allclose(table[:, 1], np.tile(b, a.size), rtol=1e-9)
        back = (table[:, 2] + 1j * table[:, 3]).reshape(small_slice.values.shape)
        rel = np.max(np.abs(back - small_slice.values) / np.max(np.abs(small_slice.values)))
        assert rel < 1e-8
        assert np.allclose(table[:, 4], np.abs(back).ravel(), rtol=1e-8)

    def test_header_describes_plane(self, tmp_path, small_slice):
        path = tmp_path / "slice.csv"
        save_field_slice_csv(path, small_slice)
        first, second = path.read_text().splitlines()[:2]
        assert "plane=xoz" in first and "offset=25" in first
        assert second.lstrip("# ").startswith("x_mm,z_mm,")

    def test_deterministic_bytes(self, tmp_path, small_slice):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_field_slice_csv(p1, small_slice)
        save_field_slice_csv(p2, small_slice)
        assert p1.read_bytes() == p2.read_bytes()


class TestSliceMagnitudePgm:
    def test_normalization_spans_full_range(self, tmp_path, small_slice):
        path = tmp_path / "mag.pgm"
        slice_magnitude_pgm(path, small_slice)
        img = load_pgm(path)
        assert img.dtype == np.uint16
        assert img.shape == small_slice.values.shape
        assert img.min() == 0 and img.max() == 65535
        # brightest pixel is the magnitude peak
        peak = np.unravel_index(np.argmax(small_slice.magnitude()), img.shape)
        assert img[peak] == 65535

    def test_flat_input_does_not_divide_by_zero(self, tmp_path):
        flat = FieldSlice(
            PlaneSpec("xoy", 40.0), (0.0, 0.0), 0.1, np.ones((4, 5), dtype=complex)
        )
        path = tmp_path / "flat.pgm"
        slice_magnitude_pgm(path, flat)
        assert np.all(load_pgm(path) == 0)


class TestManifest:
    def test_contents_and_sorting(self, tmp_path):
        path = write_manifest(
            tmp_path,
            ["acoustrap", "hologram", "focus"],
            seed=42,
            config_snapshot={"medium": {"c": 1500.0}},
            outputs=["z.csv", "a.csv"],
        )
        assert path.name == MANIFEST_NAME
        doc = json.loads(path.read_text())
        assert doc["command"] == ["acoustrap", "hologram", "focus"]
        assert doc["seed"] == 42
        assert doc["outputs"] == ["a.csv", "z.csv"]
        assert doc["config"]["medium"]["c"] == 1500.0

    def test_no_timestamps_and_reproducible(self, tmp_path):
        args = (["cmd"], 1, {"k": "v"}, ["out.csv"])
        p1 = write_manifest(tmp_path / "run1", *args)
        p2 = write_manifest(tmp_path / "run2", *args)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text().lower()
        for banned in ("time", "date", "host", "user"):
            assert banned not in text

    def test_creates_output_directory(self, tmp_path):
        target = tmp_path / "fresh" / "nested"
        path = write_manifest(target, ["cmd"], None, {}, [])
        assert path.exists() and path.parent == target
