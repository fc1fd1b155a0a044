"""Command line interface.

Subcommands: hologram (focus | octa | ib), field, calibrate, vision
(render | extract), simulate, bench. Every run writes its outputs plus a
single manifest.json into --out-dir; reruns of the same command with the
same seed reproduce every file byte for byte (bench timings excepted).

Exit codes: 0 success, 2 configuration or input errors, 3 geometry
errors, 4 detection failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    ReferenceSet,
    acquire_reference,
    build_camera_pair,
    calibrate_jacobian,
    lattice_points,
    save_calibration,
)
from .config import (
    ENV_CONFIG_VAR,
    SimulatorConfig,
    _build_dataclass,
    _read_raw,
    config_to_dict,
    resolve_config,
)
from .control import (
    SimScenario,
    TrapWorld,
    make_batch_scenarios,
    run_batch,
    run_trap_loop,
    step_particle,
)
from .core import Contrast, ParticleState, Vec3, usable_cpus, wavelength
from .errors import (
    AcoustrapError,
    CalibrationError,
    ConfigurationError,
    GeometryError,
)
from .field import PlaneSpec, field_slice
from .formats import (
    load_frame_pgm,
    load_hologram_csv,
    save_field_slice_csv,
    save_hologram_csv,
    save_pgm,
    slice_magnitude_pgm,
    write_manifest,
)
from .hologram import (
    ib_baseline_hologram,
    make_focus_hologram,
    make_octahedral_hologram,
    octahedron_vertexes,
)
from .vision import (
    background_pixels,
    extract_feature,
    project,
    render_frame,
    tracking_window,
)

# Upper bounds on count options: a batch holds every scenario and report in
# memory, a frame writes a PGM file per camera, an iterative-baseline
# iteration a cost row, and a bench repeat times every layer once more.
MAX_BATCH_SCENARIOS = 10_000
MAX_RENDER_FRAMES = 100
MAX_IB_ITERATIONS = 10_000
MAX_BENCH_REPEATS = 1_000
# Scenarios in the batch that ``bench`` times at --jobs 1 and at every usable CPU.
BENCH_BATCH_SCENARIOS = 8


def _parse_vec3(text: str) -> Vec3:
    # raise the argparse type so usage errors exit 2 instead of crashing
    try:
        return Vec3.from_array(text.split(","))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(f"expected finite numbers x,y,z but got {text!r}") from exc


def _int_at_least(low: int):
    """argparse type for integers >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer but got {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number but got {text!r}") from exc
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _parse_lattice(text: str) -> tuple[int, int, int]:
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integer nx,ny,nz but got {text!r}") from exc
    if len(counts) != 3 or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"expected nx,ny,nz counts >= 1 but got {text!r}")
    return counts


def _check_at_most(option: str, value: int, limit: int) -> None:
    """Reject a count option above its bound before any work starts."""
    if value > limit:
        raise ConfigurationError(f"{option} {value:,} is more than {limit:,}")


def _check_in_tank(config: SimulatorConfig, what: str, points: list[Vec3]) -> None:
    """Reject points outside the tank before any field arithmetic on them
    can overflow."""
    if not config.workspace.tank_contains_points(np.array([p.as_array() for p in points])):
        raise GeometryError(f"{what} must lie inside the tank")


def _parse_targets(text: str) -> list[Vec3]:
    return [_parse_vec3(part) for part in text.split(";") if part.strip()]


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(args, config: SimulatorConfig, outputs: list[str]) -> None:
    write_manifest(args.out_dir, args.command_line, args.seed, config_to_dict(config), outputs)


def cmd_hologram(args, config: SimulatorConfig) -> int:
    if args.mode == "ib":
        _check_at_most("--iterations", args.iterations, MAX_IB_ITERATIONS)
        _check_in_tank(config, "every target", args.targets)
    elif args.mode == "focus":
        _check_in_tank(config, "the focal point", [args.at])
    else:
        diameter = config.trap.octahedron_diameter if args.diameter is None else args.diameter
        vertexes = octahedron_vertexes(args.center, diameter)
        _check_in_tank(config, "the cage centre and every vertex", [args.center, *vertexes])
    out = _out_dir(args)
    outputs = ["hologram.csv"]
    if args.mode == "focus":
        holo = make_focus_hologram(config.array, args.at, config.medium)
    elif args.mode == "octa":
        holo = make_octahedral_hologram(config.array, args.center, diameter, config.medium)
        (out / "vertexes.json").write_text(
            json.dumps(
                {
                    "order": ["+x", "-x", "+y", "-y", "+z", "-z"],
                    "vertexes_mm": [[v.x, v.y, v.z] for v in vertexes],
                },
                indent=2,
            )
            + "\n"
        )
        outputs.append("vertexes.json")
    else:
        targets = args.targets
        result = ib_baseline_hologram(config.array, targets, config.medium, args.iterations)
        holo = result.hologram
        with (out / "cost_history.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost"])
            for i, cost in enumerate(result.cost_history):
                writer.writerow([i + 1, f"{cost:.9g}"])
        outputs.append("cost_history.csv")
    save_hologram_csv(out / "hologram.csv", holo)
    _finish(args, config, outputs)
    print(f"wrote {out / 'hologram.csv'} ({holo.shape[0]}x{holo.shape[1]} elements)")
    return 0


def cmd_field(args, config: SimulatorConfig) -> int:
    out = _out_dir(args)
    holo = load_hologram_csv(args.hologram)
    plane = PlaneSpec(args.plane, args.offset if args.offset is not None else _default_offset(args.plane, config))
    bounds = args.bounds if args.bounds else _default_bounds(plane, config)
    resolution = args.resolution
    if resolution is None:
        resolution = wavelength(config.medium, config.array) / 8.0
    fslice = field_slice(
        config.array,
        holo,
        plane,
        bounds,
        resolution,
        config.medium,
        directivity=config.field.piston_directivity,
        workspace=config.workspace,
    )
    save_field_slice_csv(out / "slice.csv", fslice)
    slice_magnitude_pgm(out / "slice.pgm", fslice)
    _finish(args, config, ["slice.csv", "slice.pgm"])
    n1, n2 = fslice.values.shape
    print(f"wrote {out / 'slice.csv'} and slice.pgm ({n1}x{n2} samples)")
    return 0


def _default_offset(plane: str, config: SimulatorConfig) -> float:
    c = config.workspace.center
    return {"xoy": c.z, "xoz": c.y, "yoz": c.x}[plane]


def _default_bounds(plane: PlaneSpec, config: SimulatorConfig):
    lo = config.workspace.min_corner
    hi = config.workspace.max_corner
    ax_a, ax_b, _ = plane.axes
    lo_arr, hi_arr = lo.as_array(), hi.as_array()
    return ((lo_arr[ax_a], hi_arr[ax_a]), (lo_arr[ax_b], hi_arr[ax_b]))


def _parse_bounds(text: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bounds must be numeric, got {text!r}") from exc
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"bounds must be a0,a1,b0,b1 but got {text!r}")
    return ((parts[0], parts[1]), (parts[2], parts[3]))


def cmd_calibrate(args, config: SimulatorConfig) -> int:
    poses = lattice_points(config.workspace.center, args.lattice, args.spacing)
    _check_in_tank(config, "every lattice pose", poses)
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    # acquire at native resolution, so that the file is native like the factory one
    cameras = build_camera_pair(dataclasses.replace(config.vision, scale=1.0))
    ref_set = ReferenceSet(tuple(
        acquire_reference(
            config.array, config.medium, point, cameras, pixel_noise_sigma=args.noise_px, rng=rng
        )
        for point in poses
    ))
    # each pose against the first: world motion in um, pixel motion in ROW_ORDER
    first = ref_set.points[0]
    pixels = lambda p: np.array(p.pixel_h + p.pixel_v)
    pairs = [
        ((p.world - first.world).as_array() * 1e3, pixels(p) - pixels(first))
        for p in ref_set.points[1:]
    ]
    result = calibrate_jacobian(pairs)

    save_calibration(out / "calibration.json", result.jacobian, ref_set)
    _finish(args, config, ["calibration.json"])
    print(
        f"wrote {out / 'calibration.json'}: residual RMS {result.residual_rms:.4g} px,"
        f" condition number {result.jacobian.condition_number:.4g}"
    )
    return 0


def cmd_vision(args, config: SimulatorConfig) -> int:
    if args.mode == "render":
        _check_at_most("--frames", args.frames, MAX_RENDER_FRAMES)
    out = _out_dir(args)
    if args.mode == "extract":
        frame = load_frame_pgm(args.frame)
        background = load_frame_pgm(args.background).pixels
        obs = extract_feature(frame, background, args.diameter_px, config.vision)
        record = _observation_record(obs, camera=None, frame_name=Path(args.frame).name, t=None)
        (out / "observation.json").write_text(json.dumps(record, sort_keys=True) + "\n")
        print(json.dumps(record, sort_keys=True))
        _finish(args, config, ["observation.json"])
        return 0 if obs.valid else 4

    cam_h, cam_v = build_camera_pair(config.vision)
    particle = ParticleState(
        args.position,
        args.velocity if args.velocity else Vec3(0.0, 0.0, 0.0),
        args.diameter_um,
        Contrast.POSITIVE,
    )
    # motion is linear and the tank convex, so the first and last frames
    # bound every frame; Python floats overflow to inf, never to a warning
    start = particle.position.as_array().tolist()
    dt = (args.frames - 1) / config.timing.camera_fps
    end = [p + dt * v for p, v in zip(start, particle.velocity.as_array().tolist())]
    if not config.workspace.tank_contains_points(np.array([start, end])):
        raise GeometryError(
            f"the particle leaves the tank: frame 0 at {start}, frame {args.frames - 1} at {end}"
        )
    # frame k of camera c is keyed (seed, k, c), whatever --camera selects
    cameras = {"h": (0, cam_h), "v": (1, cam_v)}
    outputs = []
    records = []
    for label in "hv" if args.camera == "both" else args.camera:
        c, cam = cameras[label]
        bg = background_pixels(cam)
        bg_name = f"background_{label}.pgm"
        save_pgm(out / bg_name, bg)
        outputs.append(bg_name)
        for k in range(args.frames):
            t = k / config.timing.camera_fps
            state = step_particle(particle, t)
            frame = render_frame(cam, state, (args.seed, k, c))
            name = f"frame_{label}_{k:03d}.pgm"
            save_pgm(out / name, frame.pixels)
            outputs.append(name)
            expected = state.diameter_um * cam.pixel_scale
            obs = extract_feature(frame, bg, expected, config.vision)
            records.append(_observation_record(obs, camera=label, frame_name=name, t=t))
    with (out / "observations.jsonl").open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    outputs.append("observations.jsonl")
    _finish(args, config, outputs)
    valid = sum(1 for r in records if r["valid"])
    print(f"rendered {len(records)} frames, {valid} valid observations -> {out}")
    return 0


def _observation_record(obs, camera, frame_name, t) -> dict:
    return {
        "camera": camera,
        "frame": frame_name,
        "t": t,
        "u": obs.u if obs.valid else None,
        "v": obs.v if obs.valid else None,
        "major_px": obs.major_px if obs.valid else None,
        "minor_px": obs.minor_px if obs.valid else None,
        "valid": obs.valid,
        "reason": obs.reason,
    }


def _scenario_from_yaml(path, config: SimulatorConfig) -> SimScenario:
    """Build a scenario file through the configuration builder; the
    particle falls from the default start at ``control.fall_speed``."""
    raw = _read_raw(path)
    if "timing" in raw:
        raise ConfigurationError(
            "scenario.timing is not a scenario key: timing comes from the configuration"
        )
    particle = raw.get("particle")
    if not isinstance(particle, dict):
        raise ConfigurationError(f"scenario.particle must be a mapping, got {particle!r}")
    particle = {
        "position": [25.0, 25.0, 45.0],
        "velocity": [0.0, 0.0, -config.control.fall_speed],
        **particle,
    }
    scenario = _build_dataclass(SimScenario, {**raw, "particle": particle}, "scenario")
    return dataclasses.replace(scenario, timing=config.timing)


_SUMMARY_COLUMNS = [
    "run",
    "material",
    "diameter_um",
    "outcome",
    "failure_reason",
    "time_to_trap_s",
    "particle_x_mm",
    "particle_y_mm",
    "particle_z_mm",
    "trap_x_mm",
    "trap_y_mm",
    "trap_z_mm",
    "deviation_mm",
]


def _summary_row(index: int, scenario: SimScenario, report) -> list:
    pa = report.particle_at_activation or (None, None, None)
    tp = report.trap_position or (None, None, None)
    fmt = lambda v: "" if v is None else f"{v:.6g}"
    return [
        index,
        scenario.particle.contrast.value,
        f"{scenario.particle.diameter_um:.6g}",
        report.outcome,
        report.failure_reason or "",
        fmt(report.time_to_trap),
        fmt(pa[0]),
        fmt(pa[1]),
        fmt(pa[2]),
        fmt(tp[0]),
        fmt(tp[1]),
        fmt(tp[2]),
        fmt(report.deviation_mm),
    ]


def cmd_simulate(args, config: SimulatorConfig) -> int:
    _check_at_most("--batch", args.batch, MAX_BATCH_SCENARIOS)
    out = _out_dir(args)
    world = TrapWorld.from_config(config)
    if args.scenario:
        scenario = _scenario_from_yaml(args.scenario, config)
        report = run_trap_loop(scenario, world)
        (out / "report.json").write_text(report.to_json() + "\n")
        _finish(args, config, ["report.json"])
        print(
            f"outcome={report.outcome}"
            + (f" reason={report.failure_reason}" if report.failure_reason else "")
            + (f" deviation={report.deviation_mm:.3f} mm" if report.deviation_mm is not None else "")
        )
        return 0

    scenarios = make_batch_scenarios(
        config.workspace,
        args.batch,
        args.seed,
        pixel_noise_sigma=args.noise_px,
        dropout_prob=args.dropout,
        contrast=Contrast.parse(args.contrast),
        diameter_um=args.diameter_um,
        fall_speed=config.control.fall_speed,
        timing=config.timing,
    )
    result = run_batch(scenarios, world, jobs=args.jobs)

    with (out / "report.jsonl").open("w") as fh:
        for report in result.reports:
            fh.write(report.to_json() + "\n")
    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for i, (scenario, report) in enumerate(zip(scenarios, result.reports)):
            writer.writerow(_summary_row(i, scenario, report))
    aggregate = {
        "runs": len(result.reports),
        "success_rate": result.success_rate,
        "mean_deviation_mm": result.mean_deviation,
        "median_deviation_mm": result.median_deviation,
        "mean_time_to_trap_s": result.mean_time_to_trap,
    }
    (out / "aggregate.json").write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    _finish(args, config, ["report.jsonl", "summary.csv", "aggregate.json"])
    print(
        f"{aggregate['runs']} runs: success rate {aggregate['success_rate']:.1%},"
        f" median deviation "
        + (
            f"{aggregate['median_deviation_mm']:.3f} mm"
            if aggregate["median_deviation_mm"] is not None
            else "n/a"
        )
    )
    return 0


def cmd_bench(args, config: SimulatorConfig) -> int:
    _check_at_most("--repeats", args.repeats, MAX_BENCH_REPEATS)
    _check_at_most("--ib-iterations", args.ib_iterations, MAX_IB_ITERATIONS)
    out = _out_dir(args)
    center = config.workspace.center
    diameter = config.trap.octahedron_diameter

    def time_call(fn, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * 1e3)
        return float(statistics.median(times))

    focus_ms = time_call(
        lambda: make_focus_hologram(config.array, center, config.medium), args.repeats
    )
    octa_ms = time_call(
        lambda: make_octahedral_hologram(config.array, center, diameter, config.medium),
        args.repeats,
    )
    targets = list(octahedron_vertexes(center, diameter))
    ib_repeats = max(3, args.repeats // 4)
    ib_ms = time_call(
        lambda: ib_baseline_hologram(config.array, targets, config.medium, args.ib_iterations),
        ib_repeats,
    )

    # the field kernel over one slice-sized band, a 31x31 xoz grid at
    # lambda/20 through the trap centre, without and with piston directivity.
    # Pairs are nominal (points x elements): at the default centre the plane
    # lies on the array's mirror line and the kernel folds twin columns, so
    # the band is also timed a quarter pitch off it, where nothing folds.
    octa = make_octahedral_hologram(config.array, center, diameter, config.medium)
    step = wavelength(config.medium, config.array) / 20.0
    band = ((center.x - 15 * step, center.x + 15 * step), (center.z - 15 * step, center.z + 15 * step))
    band_pairs = 31 * 31 * config.array.element_count

    def band_pairs_per_s(directivity, y=center.y):
        band_ms = time_call(
            lambda: field_slice(
                config.array,
                octa,
                PlaneSpec("xoz", y),
                band,
                step,
                config.medium,
                directivity=directivity,
            ),
            args.repeats,
        )
        return band_pairs / (band_ms / 1e3)

    field_pairs_per_s = band_pairs_per_s(False)
    directivity_pairs_per_s = band_pairs_per_s(True)
    unfolded_pairs_per_s = band_pairs_per_s(True, center.y + config.array.pitch / 4)

    # the frame layer at the configured vision settings, a fresh seed per
    # call so that no call reuses the noise of another; the crop is the
    # loop's, the tracking window around the particle's projection
    cam, _ = build_camera_pair(config.vision)
    particle = ParticleState(center)
    expected_px = particle.diameter_um * cam.pixel_scale
    w, h = cam.image_size
    window = tracking_window(cam.image_size, project(cam, center), expected_px) or tracking_window(
        cam.image_size, (w / 2, h / 2), expected_px
    )
    seeds = itertools.count()
    full_ms = time_call(lambda: render_frame(cam, particle, next(seeds)), args.repeats)
    crop_ms = time_call(lambda: render_frame(cam, particle, next(seeds), window), args.repeats)
    bg = background_pixels(cam)
    frame = render_frame(cam, particle, 0)
    crop = render_frame(cam, particle, 0, window)
    extract_full_ms = time_call(lambda: extract_feature(frame, bg, expected_px, config.vision), args.repeats)
    extract_crop_ms = time_call(
        lambda: extract_feature(crop, bg[window.slices], expected_px, config.vision), args.repeats
    )

    # one seeded batch of the closed loop, serial and on every usable CPU;
    # the pool forks at its first batch and later repeats reuse it
    world = TrapWorld.from_config(config)
    batch = make_batch_scenarios(
        config.workspace,
        BENCH_BATCH_SCENARIOS,
        args.seed,
        pixel_noise_sigma=1.0,
        dropout_prob=0.05,
        fall_speed=config.control.fall_speed,
        timing=config.timing,
    )
    nproc = usable_cpus()
    batch_jobs1_ms = time_call(lambda: run_batch(batch, world, jobs=1), args.repeats)
    batch_nproc_ms = time_call(lambda: run_batch(batch, world, jobs=nproc), args.repeats)

    report = {
        "elements": config.array.element_count,
        "repeats": args.repeats,
        "focus_ms": focus_ms,
        "octahedral_ms": octa_ms,
        "iterative_ms": ib_ms,
        "iterative_iterations": args.ib_iterations,
        "iterative_to_octahedral_ratio": ib_ms / octa_ms if octa_ms > 0 else None,
        "octahedral_within_transfer_window": octa_ms < config.timing.t_trans * 1e3,
        "octahedral_within_refresh_cadence": octa_ms < 1e3 / config.timing.poh_update_fps,
        "field_pairs_per_s": field_pairs_per_s,
        "field_directivity_pairs_per_s": directivity_pairs_per_s,
        "field_unfolded_pairs_per_s": unfolded_pairs_per_s,
        "frame_full_ms": full_ms,
        "frame_crop_ms": crop_ms,
        "extract_full_ms": extract_full_ms,
        "extract_crop_ms": extract_crop_ms,
        "batch_jobs1_ms": batch_jobs1_ms,
        "batch_jobs_nproc_ms": batch_nproc_ms,
    }
    (out / "bench.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _finish(args, config, ["bench.json"])
    print(f"{'synthesis route':<28}{'median ms':>12}")
    print(f"{'focus (closed form)':<28}{focus_ms:>12.3f}")
    print(f"{'octahedral (multiplexed)':<28}{octa_ms:>12.3f}")
    print(f"{'iterative baseline':<28}{ib_ms:>12.3f}")
    print(
        f"iterative/octahedral ratio: {report['iterative_to_octahedral_ratio']:.1f}x;"
        f" refresh cadence ok: {report['octahedral_within_refresh_cadence']}"
    )
    print(f"{'field kernel (961 points)':<28}{'pairs/s':>12}")
    print(f"{'plain':<28}{field_pairs_per_s:>12.3g}")
    print(f"{'piston directivity':<28}{directivity_pairs_per_s:>12.3g}")
    print(f"{'piston, quarter pitch off':<28}{unfolded_pairs_per_s:>12.3g}")
    print(f"{f'frame layer (noise sigma {cam.noise_sigma:g})':<28}{'median ms':>12}")
    print(f"{f'full frame {w}x{h}':<28}{full_ms:>12.3f}")
    print(f"{f'crop {window.c1 - window.c0}x{window.r1 - window.r0}':<28}{crop_ms:>12.3f}")
    print(f"{'extract full frame':<28}{extract_full_ms:>12.3f}")
    print(f"{'extract crop':<28}{extract_crop_ms:>12.3f}")
    print(f"{f'batch of {len(batch)} scenarios':<28}{'median ms':>12}")
    print(f"{'--jobs 1':<28}{batch_jobs1_ms:>12.3f}")
    print(f"{f'--jobs {nproc} (usable CPUs)':<28}{batch_nproc_ms:>12.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acoustrap",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    def add_common(p):
        p.add_argument(
            "--config",
            default=None,
            help=f"YAML configuration file (default: ${ENV_CONFIG_VAR} or built-ins)",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one configuration value (repeatable)",
        )
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed (default 0)")
        p.add_argument("--out-dir", default="out", help="output directory (default ./out)")

    sub = parser.add_subparsers(dest="command", required=True)

    holo = sub.add_parser("hologram", help="synthesize a hologram and export it as CSV")
    holo_sub = holo.add_subparsers(dest="mode", required=True)
    focus = holo_sub.add_parser("focus", help="single focal point")
    focus.add_argument("--at", type=_parse_vec3, required=True, metavar="X,Y,Z")
    add_common(focus)
    focus.set_defaults(func=cmd_hologram)
    octa = holo_sub.add_parser("octa", help="octahedral node cage via spatial multiplexing")
    octa.add_argument("--center", type=_parse_vec3, required=True, metavar="X,Y,Z")
    octa.add_argument(
        "--diameter", type=float, default=None,
        help="cage span in mm (default: trap.octahedron_diameter)",
    )
    add_common(octa)
    octa.set_defaults(func=cmd_hologram)
    ib = holo_sub.add_parser("ib", help="iterative alternating-projection baseline")
    ib.add_argument(
        "--targets", type=_parse_targets, required=True, metavar="X,Y,Z;X,Y,Z;...",
    )
    ib.add_argument("--iterations", type=_int_at_least(1), default=200)
    add_common(ib)
    ib.set_defaults(func=cmd_hologram)

    fld = sub.add_parser("field", help="sample the pressure field over a plane")
    fld.add_argument("--hologram", required=True, help="hologram CSV to drive the array with")
    fld.add_argument("--plane", choices=["xoy", "xoz", "yoz"], default="xoy")
    fld.add_argument("--offset", type=float, default=None, help="fixed coordinate of the plane")
    fld.add_argument("--bounds", type=_parse_bounds, default=None, metavar="A0,A1,B0,B1")
    fld.add_argument("--resolution", type=float, default=None, help="grid step in mm")
    add_common(fld)
    fld.set_defaults(func=cmd_field)

    cal = sub.add_parser("calibrate", help="synthetic end-to-end eye-to-hand calibration")
    cal.add_argument(
        "--lattice", type=_parse_lattice, default=(2, 3, 4), metavar="NX,NY,NZ",
        help="reference lattice counts (default 2,3,4)",
    )
    cal.add_argument("--spacing", type=_positive_float, default=2.0, help="lattice spacing, mm")
    cal.add_argument(
        "--noise-px", type=float, default=0.0, help="pixel noise sigma, in native sensor pixels"
    )
    add_common(cal)
    cal.set_defaults(func=cmd_calibrate)

    vis = sub.add_parser("vision", help="render frames or extract features from PGM files")
    vis_sub = vis.add_subparsers(dest="mode", required=True)
    render = vis_sub.add_parser("render", help="render frames and extract observations")
    render.add_argument("--position", type=_parse_vec3, required=True, metavar="X,Y,Z")
    render.add_argument("--velocity", type=_parse_vec3, default=None, metavar="X,Y,Z")
    render.add_argument("--diameter-um", type=float, default=400.0)
    render.add_argument("--frames", type=_int_at_least(1), default=1)
    render.add_argument("--camera", choices=["h", "v", "both"], default="both")
    add_common(render)
    render.set_defaults(func=cmd_vision)
    extract = vis_sub.add_parser("extract", help="extract one observation from a PGM frame")
    extract.add_argument("--frame", required=True)
    extract.add_argument("--background", required=True)
    extract.add_argument("--diameter-px", type=float, required=True)
    add_common(extract)
    extract.set_defaults(func=cmd_vision)

    sim = sub.add_parser("simulate", help="run trapping scenarios")
    sim.add_argument("--scenario", default=None, help="YAML file describing one scenario")
    sim.add_argument("--batch", type=int, default=1, help="number of scenarios (default 1)")
    sim.add_argument("--noise-px", type=float, default=0.0, help="feature jitter sigma, px")
    sim.add_argument("--dropout", type=float, default=0.0, help="per-camera dropout probability")
    sim.add_argument("--contrast", choices=["positive", "negative"], default="positive")
    sim.add_argument("--diameter-um", type=float, default=400.0)
    sim.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes for batches")
    add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser(
        "bench", help="time the synthesis routes, the field kernel, the frame layer and a batch"
    )
    bench.add_argument("--repeats", type=_int_at_least(1), default=21)
    bench.add_argument("--ib-iterations", type=_int_at_least(1), default=200)
    add_common(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = ["acoustrap", *argv]
    try:
        config = resolve_config(args.config, args.set)
        return args.func(args, config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return 2
    except AcoustrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
