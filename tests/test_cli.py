import csv
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from acoustrap import cli
from acoustrap.calibration import build_camera_pair, default_calibration, lattice_points, load_calibration
from acoustrap.cli import (
    MAX_BATCH_SCENARIOS,
    MAX_BENCH_REPEATS,
    MAX_IB_ITERATIONS,
    MAX_RENDER_FRAMES,
    _check_at_most,
    _scenario_from_yaml,
    build_parser,
    main,
)
from acoustrap.config import SimulatorConfig, VisionConfig, config_from_dict
from acoustrap.core import MediumConfig, TransducerArray, Vec3, wavelength
from acoustrap.errors import ConfigurationError
from acoustrap.formats import load_hologram_csv, load_pgm, save_pgm
from acoustrap.hologram import make_focus_hologram, make_octahedral_hologram
from acoustrap.vision import project


def run_cli(*argv):
    return main(list(argv))


class TestHologramCommand:
    def test_focus_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "focus"
        assert run_cli("hologram", "focus", "--at", "25,25,40", "--out-dir", str(out)) == 0
        holo = load_hologram_csv(out / "hologram.csv")
        expected = make_focus_hologram(TransducerArray(), Vec3(25, 25, 40), MediumConfig())
        assert np.max(np.abs(holo.phases - expected.phases)) < 1e-7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["hologram.csv"]
        assert manifest["command"][0] == "acoustrap"
        assert "50x50" in capsys.readouterr().out

    def test_octa_emits_vertex_listing(self, tmp_path):
        out = tmp_path / "octa"
        rc = run_cli(
            "hologram", "octa", "--center", "25,25,40", "--diameter", "2.0",
            "--out-dir", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "vertexes.json").read_text())
        assert doc["order"] == ["+x", "-x", "+y", "-y", "+z", "-z"]
        assert doc["vertexes_mm"][0] == [26.0, 25.0, 40.0]
        assert doc["vertexes_mm"][5] == [25.0, 25.0, 39.0]
        holo = load_hologram_csv(out / "hologram.csv")
        expected = make_octahedral_hologram(
            TransducerArray(), Vec3(25, 25, 40), 2.0, MediumConfig()
        )
        assert np.max(np.abs(holo.phases - expected.phases)) < 1e-7

    def test_octa_diameter_defaults_to_config_override(self, tmp_path):
        out = tmp_path / "octa_set"
        rc = run_cli(
            "hologram", "octa", "--center", "25,25,40",
            "--set", "trap.octahedron_diameter=2.0",
            "--out-dir", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "vertexes.json").read_text())
        assert doc["vertexes_mm"][0] == [26.0, 25.0, 40.0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trap"]["octahedron_diameter"] == 2.0

    def test_ib_cost_history(self, tmp_path):
        out = tmp_path / "ib"
        rc = run_cli(
            "hologram", "ib", "--targets", "25,25,40;26,25,40",
            "--iterations", "40", "--out-dir", str(out),
        )
        assert rc == 0
        with (out / "cost_history.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "cost"]
        costs = [float(r[1]) for r in rows[1:]]
        assert len(costs) == 40
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("diameter", ["nan", "inf"])
    def test_non_finite_diameter_is_config_error(self, tmp_path, capsys, diameter):
        rc = run_cli(
            "hologram", "octa", "--center", "25,25,40", "--diameter", diameter,
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"octahedral_trap.diameter must be >= 0, got {diameter}" in err

    def test_focus_below_plane_is_geometry_error(self, tmp_path):
        assert run_cli(
            "hologram", "focus", "--at", "25,25,-5", "--out-dir", str(tmp_path)
        ) == 3

    def test_malformed_point_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("hologram", "focus", "--at", "25,25", "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    def test_non_finite_point_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("hologram", "focus", "--at", "25,25,nan", "--out-dir", str(tmp_path))
        assert exc.value.code == 2


class TestFieldCommand:
    @pytest.fixture()
    def focus_csv(self, tmp_path):
        out = tmp_path / "holo"
        run_cli("hologram", "focus", "--at", "25,25,40", "--out-dir", str(out))
        return out / "hologram.csv"

    def test_slice_outputs(self, tmp_path, focus_csv):
        out = tmp_path / "field"
        rc = run_cli(
            "field", "--hologram", str(focus_csv), "--plane", "xoz",
            "--offset", "25", "--bounds", "24,26,39,41", "--resolution", "0.1",
            "--out-dir", str(out),
        )
        assert rc == 0
        img = load_pgm(out / "slice.pgm")
        assert img.dtype == np.uint16
        text = (out / "slice.csv").read_text().splitlines()
        assert "plane=xoz" in text[0]
        # focus sits mid-grid: the brightest pixel lands there
        peak = np.unravel_index(np.argmax(img), img.shape)
        assert abs(peak[0] - img.shape[0] // 2) <= 1
        assert abs(peak[1] - img.shape[1] // 2) <= 1

    def test_coarse_resolution_warns_but_completes(self, tmp_path, focus_csv):
        out = tmp_path / "coarse"
        lam = wavelength(MediumConfig(), TransducerArray())
        with pytest.warns(UserWarning, match="resolution"):
            rc = run_cli(
                "field", "--hologram", str(focus_csv), "--plane", "xoy",
                "--bounds", "20,30,20,30", "--resolution", f"{lam:.4f}",
                "--out-dir", str(out),
            )
        assert rc == 0
        assert (out / "slice.csv").exists()

    def test_grid_outside_tank_is_geometry_error(self, tmp_path, focus_csv):
        rc = run_cli(
            "field", "--hologram", str(focus_csv), "--plane", "xoy",
            "--bounds=-40,-35,20,25", "--resolution", "0.15",
            "--out-dir", str(tmp_path / "outside"),
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--resolution", "inf", "resolution must be finite"),
            ("--resolution", "nan", "resolution must be finite"),
            ("--offset", "nan", "plane offset must be finite"),
            ("--offset", "inf", "plane offset must be finite"),
        ],
    )
    def test_non_finite_resolution_or_offset_is_config_error(
        self, tmp_path, capsys, focus_csv, flag, value, named
    ):
        rc = run_cli(
            "field", "--hologram", str(focus_csv), "--plane", "xoz", flag, value,
            "--out-dir", str(tmp_path / "f"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    def test_bad_bounds_usage_error(self, tmp_path, focus_csv):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "field", "--hologram", str(focus_csv),
                "--bounds", "1,2,3", "--out-dir", str(tmp_path),
            )
        assert exc.value.code == 2

    def test_missing_hologram_file(self, tmp_path):
        rc = run_cli(
            "field", "--hologram", str(tmp_path / "absent.csv"),
            "--out-dir", str(tmp_path / "f"),
        )
        assert rc == 2


class TestCalibrateCommand:
    def test_noiseless_recovers_factory_jacobian(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc = run_cli(
            "calibrate", "--lattice", "2,2,2", "--out-dir", str(out), "--seed", "3",
        )
        assert rc == 0
        jac, refs = load_calibration(out / "calibration.json")
        factory, _ = default_calibration()
        assert np.allclose(jac.matrix, factory.matrix, atol=1e-8)
        assert len(refs.points) == 8
        assert "residual RMS" in capsys.readouterr().out

    def test_default_flags_fit_from_true_peaks(self, tmp_path):
        out = tmp_path / "cal"
        assert run_cli("calibrate", "--out-dir", str(out)) == 0
        jac, refs = load_calibration(out / "calibration.json")
        factory, _ = default_calibration()
        assert np.allclose(jac.matrix, factory.matrix, atol=1e-8)
        commanded = lattice_points(Vec3(25.0, 25.0, 40.0), (2, 3, 4), 2.0)
        assert len(refs.points) == len(commanded)
        for ref, point in zip(refs.points, commanded):
            # the poses are the |p| peaks, below the commanded foci
            assert 0.04 < point.z - ref.world.z < 0.1
            assert abs(ref.world.x - point.x) < 0.005 and abs(ref.world.y - point.y) < 0.005

    @pytest.mark.parametrize("scale", [0.25, 0.5])
    def test_file_is_native_at_any_scale(self, tmp_path, scale):
        # the file loads back into the factory cameras at the configured scale
        out = tmp_path / "cal"
        rc = run_cli(
            "calibrate", "--lattice", "2,2,2", "--set", f"vision.scale={scale}",
            "--out-dir", str(out),
        )
        assert rc == 0
        vision = VisionConfig(scale=scale)
        fitted = build_camera_pair(vision, load_calibration(out / "calibration.json"))
        for cam, factory in zip(fitted, build_camera_pair(vision)):
            assert np.allclose(cam.rows_of_j, factory.rows_of_j, rtol=0, atol=1e-8)
            # anchored elsewhere (the lattice centroid), the same affine map
            assert np.allclose(project(cam, factory.ref_world), factory.ref_pixel, rtol=0, atol=1e-8)

    def test_lattice_not_spanning_3d_names_direction(self, tmp_path, capsys):
        rc = run_cli("calibrate", "--lattice", "1,1,2", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "no excitation along direction" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", ["-2", "0", "nan", "inf", "x"])
    def test_non_positive_spacing_is_usage_error(self, tmp_path, capsys, spacing):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--spacing", spacing, "--out-dir", str(tmp_path))
        assert exc.value.code == 2
        assert "--spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_negative_or_nan_noise_is_config_error(self, tmp_path, capsys, noise):
        rc = run_cli("calibrate", "--noise-px", noise, "--out-dir", str(tmp_path))
        assert rc == 2
        assert "pixel_noise_sigma" in capsys.readouterr().err

    def test_noise_beyond_the_sensor_is_config_error(self, tmp_path, capsys):
        # squaring residuals of 1e160 px used to overflow into an infinite RMS
        rc = run_cli("calibrate", "--noise-px", "1e160", "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at most the sensor's 2448 px" in err
        assert not (tmp_path / "calibration.json").exists()

    def test_bad_lattice_is_config_error(self, tmp_path):
        # parsed by argparse now: a usage error, still exit code 2
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--lattice", "2,3", "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    def test_oversized_lattice_is_config_error(self, tmp_path, capsys):
        # lattice_points rejects the counts before it builds any pose
        rc = run_cli("calibrate", "--lattice", "1000,1000,1000", "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lattice 1000x1000x1000" in err

    @pytest.mark.parametrize("lattice", ["2,x,4", "2,0,4"])
    def test_non_integer_or_empty_lattice_is_usage_error(self, tmp_path, capsys, lattice):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--lattice", lattice, "--out-dir", str(tmp_path))
        assert exc.value.code == 2
        assert "--lattice" in capsys.readouterr().err


class TestVisionCommand:
    def test_render_then_extract(self, tmp_path):
        out = tmp_path / "vis"
        rc = run_cli(
            "vision", "render", "--position", "25,25,40", "--frames", "2",
            "--camera", "both", "--seed", "5", "--out-dir", str(out),
        )
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"background_h.pgm", "background_v.pgm", "frame_h_000.pgm",
                "frame_h_001.pgm", "frame_v_000.pgm", "frame_v_001.pgm",
                "observations.jsonl", "manifest.json"} <= names
        records = [
            json.loads(line) for line in (out / "observations.jsonl").read_text().splitlines()
        ]
        assert len(records) == 4 and all(r["valid"] for r in records)

        out2 = tmp_path / "extract"
        rc = run_cli(
            "vision", "extract",
            "--frame", str(out / "frame_h_000.pgm"),
            "--background", str(out / "background_h.pgm"),
            "--diameter-px", "6.3", "--seed", "2", "--out-dir", str(out2),
        )
        assert rc == 0
        obs = json.loads((out2 / "observation.json").read_text())
        assert obs["valid"]
        match = next(r for r in records if r["frame"] == "frame_h_000.pgm")
        assert abs(obs["u"] - match["u"]) < 0.5
        assert abs(obs["v"] - match["v"]) < 0.5

    def test_noisy_frames_do_not_depend_on_the_other_camera(self, tmp_path):
        # frame k of camera c draws its noise from the key (seed, k, c)
        frames = {}
        for camera in ("v", "both"):
            out = tmp_path / camera
            rc = run_cli(
                "vision", "render", "--position", "25,25,40", "--frames", "2", "--camera", camera,
                "--seed", "3", "--set", "vision.noise_sigma=5", "--out-dir", str(out),
            )
            assert rc == 0
            frames[camera] = {p.name: p.read_bytes() for p in out.glob("frame_v_*.pgm")}
        assert sorted(frames["v"]) == ["frame_v_000.pgm", "frame_v_001.pgm"]
        assert frames["v"] == frames["both"]
        # and the two cameras draw different noise over the flat background
        h, v = (load_pgm(tmp_path / "both" / f"frame_{c}_000.pgm") for c in "hv")
        assert not np.array_equal(h[:8], v[:8])

    def test_extract_empty_frame_exits_detection_code(self, tmp_path):
        out = tmp_path / "vis"
        run_cli(
            "vision", "render", "--position", "25,25,40", "--frames", "1",
            "--camera", "h", "--out-dir", str(out),
        )
        rc = run_cli(
            "vision", "extract",
            "--frame", str(out / "background_h.pgm"),
            "--background", str(out / "background_h.pgm"),
            "--diameter-px", "6.3", "--out-dir", str(tmp_path / "empty"),
        )
        assert rc == 4
        obs = json.loads((tmp_path / "empty" / "observation.json").read_text())
        assert not obs["valid"] and obs["reason"]

    def _extract(self, tmp_path, frame, background):
        return run_cli(
            "vision", "extract", "--frame", str(frame), "--background", str(background),
            "--diameter-px", "6.3", "--out-dir", str(tmp_path / "x"),
        )

    def test_extract_missing_frame_is_config_error(self, tmp_path, capsys):
        rc = self._extract(tmp_path, tmp_path / "nonexistent.pgm", tmp_path / "bg.pgm")
        assert rc == 2
        assert "cannot read PGM file" in capsys.readouterr().err

    def test_extract_truncated_frame_is_config_error(self, tmp_path, capsys):
        frame = tmp_path / "short.pgm"
        frame.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
        rc = self._extract(tmp_path, frame, frame)
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_extract_16_bit_background_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "vis"
        run_cli("vision", "render", "--position", "25,25,40", "--camera", "h", "--out-dir", str(out))
        # a 16-bit copy of the background would wrap in extraction's int16 arithmetic
        wide = tmp_path / "bg16.pgm"
        save_pgm(wide, load_pgm(out / "background_h.pgm").astype(np.uint16) * 257)
        capsys.readouterr()
        rc = self._extract(tmp_path, out / "frame_h_000.pgm", wide)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bg16.pgm is not an 8-bit frame" in err
        assert not (tmp_path / "x" / "observation.json").exists()

    @pytest.mark.parametrize(
        "motion",
        [["--position", "1e306,25,40"], ["--position", "25,25,40", "--velocity", "1e308,0,0", "--frames", "3"]],
        ids=["position", "velocity"],
    )
    def test_render_outside_tank_is_geometry_error(self, tmp_path, capsys, motion):
        rc = run_cli("vision", "render", *motion, "--camera", "h", "--out-dir", str(tmp_path / "o"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "leaves the tank" in err and "Traceback" not in err

    @pytest.mark.parametrize("diameter", ["nan", "inf", "1e9", "3"])
    def test_extract_bad_diameter_is_config_error(self, tmp_path, capsys, diameter):
        out = tmp_path / "vis"
        run_cli(
            "vision", "render", "--position", "25,25,40", "--camera", "h",
            "--out-dir", str(out),
        )
        rc = run_cli(
            "vision", "extract",
            "--frame", str(out / "frame_h_000.pgm"),
            "--background", str(out / "background_h.pgm"),
            "--diameter-px", diameter, "--out-dir", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "expected_diameter_px" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", ["-2", "0"])
    def test_non_positive_frames_is_usage_error(self, tmp_path, frames):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "vision", "render", "--position", "25,25,40", "--frames", frames,
                "--out-dir", str(tmp_path),
            )
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_single_scenario_from_yaml(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "particle:\n"
            "  position: [25.0, 25.0, 50.0]\n"
            "  velocity: [0.0, 0.0, -10.0]\n"
            "  diameter_um: 400\n"
            "  contrast: positive\n"
            "seed: 7\n"
        )
        out = tmp_path / "run"
        rc = run_cli("simulate", "--scenario", str(scenario), "--out-dir", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"] == "trapped"
        assert report["deviation_mm"] < 0.05
        assert "outcome=trapped" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body,named",
        [
            ("particle: 5\n", "scenario.particle"),
            ("particle:\n  position: [1, 2]\n", "scenario.particle.position"),
            ("particle:\n  position: [1, 2, a]\n", "scenario.particle.position"),
            ("particle: {}\nseed: abc\n", "scenario.seed"),
            ("particle: {}\ntrap_diameter: abc\n", "scenario.trap_diameter"),
            ("particle: {}\ntrap_diameter: 2.533\n", "unknown configuration key scenario.trap_diameter"),
            ("particle:\n  contrast: 3\n", "scenario.particle.contrast"),
            ("particle: {}\npixel_noise_sgima: 1.0\n", "scenario.pixel_noise_sgima"),
            ("particle:\n  speed: 3\n", "scenario.particle.speed"),
            ("particle: {}\nseed: -1\n", "scenario.seed must be >= 0"),
            ("particle: {}\ntiming: {t_dip: 0.1}\n", "scenario.timing"),
            ("seed: 7\n", "scenario.particle"),
            ("particle:\n  contrast: sideways\n", "scenario.particle.contrast"),
        ],
        ids=[
            "particle_scalar",
            "short_position",
            "text_in_position",
            "text_seed",
            "text_trap_diameter",
            "retired_trap_diameter",
            "numeric_contrast",
            "misspelt_key",
            "unknown_particle_key",
            "negative_seed",
            "timing_from_config",
            "missing_particle",
            "unknown_contrast",
        ],
    )
    def test_malformed_scenario_is_config_error(self, tmp_path, capsys, body, named):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(body)
        rc = run_cli("simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    def test_missing_scenario_file(self, tmp_path):
        rc = run_cli(
            "simulate", "--scenario", str(tmp_path / "none.yaml"),
            "--out-dir", str(tmp_path / "out"),
        )
        assert rc == 2

    def test_batch_outputs_and_determinism(self, tmp_path, capsys):
        argv = ("simulate", "--batch", "3", "--seed", "11")
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert run_cli(*argv, "--out-dir", str(out1)) == 0
        assert run_cli(*argv, "--out-dir", str(out2)) == 0

        lines = (out1 / "report.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()

        with (out1 / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:6] == [
            "run", "material", "diameter_um", "outcome", "failure_reason", "time_to_trap_s",
        ]
        assert len(rows) == 4
        assert all(r[3] == "trapped" for r in rows[1:])

        aggregate = json.loads((out1 / "aggregate.json").read_text())
        assert aggregate["runs"] == 3
        assert aggregate["success_rate"] == 1.0
        assert aggregate["median_deviation_mm"] < 0.05
        assert "success rate 100.0%" in capsys.readouterr().out

    def test_rerun_reproduces_manifest(self, tmp_path):
        out = tmp_path / "again"
        argv = ("simulate", "--batch", "2", "--seed", "4", "--out-dir", str(out))
        assert run_cli(*argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli(*argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "nonsense",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "trap.unknown_key=1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "vision.image_width=612",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        assert "unknown configuration key vision.image_width" in capsys.readouterr().err
        for scale in ("0.001", "1.5"):
            rc = run_cli(
                "simulate", "--batch", "1", "--set", f"vision.scale={scale}",
                "--out-dir", str(tmp_path),
            )
            assert rc == 2
            assert "vision.scale must be within" in capsys.readouterr().err
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "vision.min_foreground_fraction=1.5",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        assert "vision.min_foreground_fraction" in capsys.readouterr().err
        # rejected by name before any arithmetic overflows
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "array.pitch=1e300",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        assert "array.pitch" in capsys.readouterr().err

        # past [-255, 255] the binarization threshold is constant; 1e308
        # used to overflow with a RuntimeWarning and exit 0
        for command in (("simulate", "--batch", "2"), ("vision", "render", "--position", "25,25,40")):
            for offset in ("1e308", "-1e308"):
                rc = run_cli(*command, "--set", f"vision.binarize_offset={offset}", "--out-dir", str(tmp_path))
                assert rc == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and "vision.binarize_offset must be within [-255, 255]" in err
        # 1e308 used to overflow the noise with a RuntimeWarning and exit 0
        rc = run_cli("simulate", "--batch", "2", "--set", "vision.noise_sigma=1e308", "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "vision.noise_sigma must be within [0, 255], got 1e+308" in err

    @pytest.mark.parametrize("field", ["timing.t_dip", "timing.t_trans"])
    def test_oversized_latency_names_its_field(self, tmp_path, capsys, field):
        # it used to overflow the prediction and name a non-finite Vec3.z
        rc = run_cli("simulate", "--batch", "1", "--set", f"{field}=1e308", "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{field} must be within [0, 60], got 1e+308" in err

    @pytest.mark.parametrize(
        "override",
        [
            "vision.noise_sigma=.inf",
            "vision.noise_sigma=.nan",
            "control.confirm_tol=.nan",
            "vision.binarize_offset=.nan",
            "medium.sound_speed=.inf",
            "timing.t_dip=.nan",
        ],
    )
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, override):
        rc = run_cli("simulate", "--batch", "1", "--set", override, "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{override.partition('=')[0]} must be finite" in err

    def test_workspace_without_room_for_the_cage_is_config_error(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--batch", "1",
            "--set", "workspace.center=[25,25,1.2]", "--set", "workspace.extent=[10,10,2]",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "workspace" in err and "trap.octahedron_diameter" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_particle_imaged_too_small_names_its_settings(self, tmp_path, capsys, jobs):
        # it used to exit mid-run naming only extraction's expected_diameter_px
        rc = run_cli(
            "simulate", "--batch", "2", "--jobs", jobs, "--set", "vision.scale=0.1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "vision.scale=0.1" in err and "diameter_um=400.0" in err
        assert "expected_diameter_px" not in err

    def test_too_many_elements_is_config_error(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--batch", "1", "--set", "array.rows=100000",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "array.rows x array.cols must be at most 10,000 elements" in err

    def test_exponent_override_is_accepted(self, tmp_path):
        out = tmp_path / "exp"
        rc = run_cli(
            "hologram", "focus", "--at", "25,25,40", "--set", "array.frequency=2.3e6",
            "--out-dir", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["array"]["frequency"] == 2.3e6

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "1e308"])
    def test_negative_or_nan_noise_is_config_error(self, tmp_path, capsys, noise):
        # 1e308 used to overflow localization before naming a Vec3 component
        rc = run_cli("simulate", "--noise-px", noise, "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "pixel_noise_sigma must be within [0, 2448]" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "overrides",
        [
            ("timing.camera_fps=1e-308",),
            ("control.fall_speed=1e308", "timing.camera_fps=0.01"),
        ],
        ids=["tiny_fps", "huge_fall_speed"],
    )
    def test_particle_path_past_the_float_range_names_its_settings(
        self, tmp_path, capsys, overrides, jobs
    ):
        # it used to overflow the particle's path and name a non-finite Vec3.z
        sets = [arg for o in overrides for arg in ("--set", o)]
        rc = run_cli("simulate", "--batch", "2", "--jobs", jobs, *sets, "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "timing.camera_fps=" in err and "control.frame_budget=150" in err
        assert "position" in err and "velocity" in err and "Vec3" not in err

    def test_scenario_path_past_the_float_range_names_its_settings(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("particle:\n  velocity: [0, 0, -1e308]\n")
        rc = run_cli(
            "simulate", "--scenario", str(path), "--set", "timing.camera_fps=0.01",
            "--out-dir", str(tmp_path / "out"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "velocity (0.0, 0.0, -1e+308)" in err and "timing.camera_fps=0.01" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--batch", "1"),
        ("vision", "render", "--position", "25,25,40"),
        ("calibrate", "--lattice", "2,2,2"),
    ],
    ids=["simulate", "vision_render", "calibrate"],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", "-1", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("hologram", "focus", "--at", "25,25,1e300"), 3),
        (("hologram", "octa", "--center", "25,25,1e300"), 3),
        (("hologram", "ib", "--targets", "25,25,1e300"), 3),
        (("calibrate", "--spacing", "1e200", "--lattice", "2,1,1"), 3),
        (("field", "--hologram", "{inf}"), 2),
        (("field", "--hologram", "{zero}", "--resolution", "1e-300"), 2),
    ],
    ids=["focus", "octa", "ib", "calibrate", "inf_hologram", "tiny_resolution"],
)
def test_far_off_or_non_finite_input_exits_with_one_line(tmp_path, capsys, argv, code):
    # each used to warn of an overflow or an invalid value before its error
    phases = np.zeros((50, 50))
    np.savetxt(tmp_path / "zero.csv", phases, delimiter=",")
    phases[3, 4] = np.inf
    np.savetxt(tmp_path / "inf.csv", phases, delimiter=",")
    argv = [a.format(inf=tmp_path / "inf.csv", zero=tmp_path / "zero.csv") for a in argv]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == code
    assert capsys.readouterr().err.count("\n") == 1


class TestCountBounds:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("simulate", "--batch", "1000000000000"), "--batch"),
            (("vision", "render", "--position", "25,25,40", "--frames", "1000000000000"), "--frames"),
        ],
    )
    def test_oversized_count_is_config_error(self, tmp_path, capsys, argv, option):
        # the bound is checked before any scenario or frame is made
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{option} 1,000,000,000,000" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "limit",
        [
            MAX_BATCH_SCENARIOS,
            MAX_RENDER_FRAMES,
            pytest.param(MAX_IB_ITERATIONS, id="ib_iterations"),
            pytest.param(MAX_BENCH_REPEATS, id="bench_repeats"),
        ],
    )
    def test_bound_is_inclusive(self, limit):
        _check_at_most("--count", limit, limit)
        with pytest.raises(ConfigurationError, match="--count"):
            _check_at_most("--count", limit + 1, limit)

    @pytest.mark.parametrize(
        "argv, option, bound",
        [
            (("hologram", "ib", "--targets", "25,25,40", "--iterations", "4"), "--iterations", "MAX_IB_ITERATIONS"),
            (("bench", "--repeats", "4"), "--repeats", "MAX_BENCH_REPEATS"),
            (("bench", "--ib-iterations", "4"), "--ib-iterations", "MAX_IB_ITERATIONS"),
        ],
    )
    def test_iteration_and_repeat_counts_are_bounded(self, tmp_path, capsys, monkeypatch, argv, option, bound):
        # a bound of 3 stands in for the real one, so no large count runs
        monkeypatch.setattr(cli, bound, 3)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{option} 4 is more than 3" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("hologram", "ib", "--targets", "25,25,40", "--iterations", "0"), "--iterations"),
            (("bench", "--ib-iterations", "0"), "--ib-iterations"),
        ],
    )
    def test_zero_iterations_is_usage_error(self, tmp_path, capsys, argv, option):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out-dir", str(out))
        assert exc.value.code == 2
        assert f"{option}: must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_bench_report(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = run_cli(
            "bench", "--repeats", "3", "--ib-iterations", "5", "--out-dir", str(out)
        )
        assert rc == 0
        doc = json.loads((out / "bench.json").read_text())
        assert doc["elements"] == 2500
        for key in ("focus_ms", "octahedral_ms", "iterative_ms"):
            assert doc[key] > 0.0
        assert doc["iterative_to_octahedral_ratio"] > 1.0
        assert doc["octahedral_within_transfer_window"] is True
        assert doc["octahedral_within_refresh_cadence"] is True
        for key in ("field_pairs_per_s", "field_directivity_pairs_per_s", "field_unfolded_pairs_per_s"):
            assert doc[key] > 0.0
        for key in ("frame_full_ms", "frame_crop_ms", "extract_full_ms", "extract_crop_ms"):
            assert doc[key] > 0.0
        for key in ("batch_jobs1_ms", "batch_jobs_nproc_ms"):
            assert doc[key] > 0.0
        out_text = capsys.readouterr().out
        assert "synthesis route" in out_text and "frame layer (noise sigma 0)" in out_text
        assert "field kernel (961 points)" in out_text

    def test_bench_noisy_frame_layer(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = run_cli(
            "bench", "--repeats", "3", "--ib-iterations", "5",
            "--set", "vision.noise_sigma=5", "--out-dir", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "bench.json").read_text())
        for key in ("frame_full_ms", "frame_crop_ms"):
            assert doc[key] > 0.0
        assert "frame layer (noise sigma 5)" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--batch", "2", "--jobs", jobs, "--out-dir", str(tmp_path))
        assert exc.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err

    def test_zero_repeats_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--repeats", "0", "--out-dir", str(tmp_path))
        assert exc.value.code == 2


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "acoustrap" in capsys.readouterr().out

    def test_imports_without_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.modules['scipy'] = None; import acoustrap.cli, acoustrap.control"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(shutil.which("acoustrap") is None, reason="script not installed")
    def test_installed_script_smoke(self, tmp_path):
        proc = subprocess.run(
            ["acoustrap", "hologram", "focus", "--at", "25,25,40",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert (tmp_path / "hologram.csv").exists()
        assert (tmp_path / "manifest.json").exists()


def _readme_commands() -> list[list[str]]:
    """Every ``acoustrap ...`` line of README.md's shell blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S))
    lines = blocks.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("acoustrap ")]


def test_readme_usage_parses():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_yaml_blocks_follow_the_schema(tmp_path):
    """README's scenario block loads through the scenario loader, and its
    configuration block is exactly the built-in defaults."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenario, configuration = re.findall(r"```yaml\n(.*?)```", text, flags=re.S)
    assert config_from_dict(yaml.safe_load(configuration)) == SimulatorConfig()
    path = tmp_path / "scenario.yaml"
    path.write_text(scenario)
    loaded = _scenario_from_yaml(path, SimulatorConfig())
    assert loaded.seed == 7 and loaded.particle.position.z == 50.0
