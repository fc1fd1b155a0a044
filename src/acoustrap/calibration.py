"""Eye-to-hand calibration between the trap frame and the camera pair.

A single 4x3 image Jacobian stacks both cameras' pixel sensitivities to
world motion (rows u_h, v_h, u_v, v_v; pixel per micrometer). Localization
inverts it through the Moore-Penrose pseudo-inverse around the reference
set's centroid: world = centroid_world + pinv(J) @ (pixels -
centroid_pixels). The packaged factory calibration reproduces the
reference bench at native sensor resolution; scale it down when the
cameras render at reduced resolution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .config import VisionConfig
from .core import MediumConfig, TransducerArray, Vec3
from .errors import CalibrationError, ConfigurationError
from .field import pressure_at_points
from .hologram import make_focus_hologram
from .vision import CameraModel, project

ROW_ORDER = ("u_h", "v_h", "u_v", "v_v")

# Motion sets whose smallest singular value falls below this fraction of
# the largest are rejected as not spanning 3-D.
_RANK_TOL = 1e-9

# The peak search stops once its step falls below this, mm (1 um).
_MIN_SCAN_STEP = 1e-3


@dataclass(frozen=True)
class JacobianMatrix:
    """(4, 3) image Jacobian in pixel per micrometer, rows ``ROW_ORDER``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=float)
        if arr.shape != (4, 3):
            raise CalibrationError(f"jacobian must be (4, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise CalibrationError("jacobian entries must be finite")
        s = np.linalg.svd(arr, compute_uv=False)
        if s[-1] <= _RANK_TOL * s[0]:
            raise CalibrationError("jacobian is rank deficient; cannot localize in 3-D")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def condition_number(self) -> float:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return float(s[0] / s[-1])

    def pseudo_inverse(self) -> np.ndarray:
        """(3, 4) Moore-Penrose pseudo-inverse, micrometer per pixel."""
        return np.linalg.pinv(self.matrix)

    def camera_rows(self, which: str) -> np.ndarray:
        """(2, 3) block for camera 'h' or 'v'."""
        if which == "h":
            return self.matrix[0:2]
        if which == "v":
            return self.matrix[2:4]
        raise ConfigurationError(f"camera selector must be 'h' or 'v', got {which!r}")

    def scaled(self, factor: float) -> "JacobianMatrix":
        return JacobianMatrix(self.matrix * factor)


@dataclass(frozen=True)
class ReferencePoint:
    """One calibration bead pose: world position and both pixel centers."""

    world: Vec3
    pixel_h: tuple[float, float]
    pixel_v: tuple[float, float]


@dataclass(frozen=True)
class ReferenceSet:
    """Reference poses whose centroids anchor localization."""

    points: tuple[ReferencePoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        if not pts:
            raise CalibrationError("reference set must contain at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def world_centroid(self) -> Vec3:
        arr = np.mean([p.world.as_array() for p in self.points], axis=0)
        return Vec3.from_array(arr)

    @property
    def pixel_centroid(self) -> np.ndarray:
        """(4,) centroid in ``ROW_ORDER``."""
        stacked = np.array(
            [[p.pixel_h[0], p.pixel_h[1], p.pixel_v[0], p.pixel_v[1]] for p in self.points],
            dtype=float,
        )
        return stacked.mean(axis=0)

    def scaled(self, factor: float) -> "ReferenceSet":
        return ReferenceSet(
            tuple(
                ReferencePoint(
                    p.world,
                    (p.pixel_h[0] * factor, p.pixel_h[1] * factor),
                    (p.pixel_v[0] * factor, p.pixel_v[1] * factor),
                )
                for p in self.points
            )
        )


@dataclass(frozen=True)
class CalibrationResult:
    jacobian: JacobianMatrix
    residual_rms: float


def calibrate_jacobian(pairs) -> CalibrationResult:
    """Least-squares Jacobian from (world motion um, pixel motion) pairs.

    Each pair is a 3-vector of world displacement in micrometers and the
    corresponding 4-vector of pixel displacements in ``ROW_ORDER``.
    Raises when the motions do not span 3-D, which includes fewer than
    three pairs, naming a direction they do not excite.
    """
    pairs = list(pairs)
    if not pairs:
        raise CalibrationError("need at least 3 motion pairs, got 0")
    moves = np.array(
        [m.as_array() if isinstance(m, Vec3) else np.asarray(m, dtype=float) for m, _ in pairs]
    )
    shifts = np.array([np.asarray(f, dtype=float) for _, f in pairs])
    if moves.shape[1] != 3 or shifts.shape[1] != 4:
        raise CalibrationError(
            f"pairs must be (3-vector, 4-vector), got {moves.shape[1]} and {shifts.shape[1]}"
        )
    # zero rows pad fewer than three motions so that vt holds a missed direction
    padded = np.vstack([moves, np.zeros((max(3 - len(moves), 0), 3))])
    _, s, vt = np.linalg.svd(padded, full_matrices=False)
    if s[-1] <= _RANK_TOL * s[0]:
        direction = vt[-1]
        raise CalibrationError(
            f"{len(pairs)} motion pairs do not span 3-D (need at least 3 independent"
            " motions); no excitation along direction"
            f" [{direction[0]:+.3f}, {direction[1]:+.3f}, {direction[2]:+.3f}]"
        )
    solution, _, _, _ = np.linalg.lstsq(moves, shifts, rcond=None)
    residual = shifts - moves @ solution
    rms = float(np.sqrt(np.mean(residual**2)))
    return CalibrationResult(JacobianMatrix(solution.T), rms)


def localize(
    jacobian: JacobianMatrix,
    refs: ReferenceSet,
    pixel_h: tuple[float, float],
    pixel_v: tuple[float, float],
) -> Vec3:
    """World position (mm) from one observation per camera."""
    observed = np.array([pixel_h[0], pixel_h[1], pixel_v[0], pixel_v[1]], dtype=float)
    delta_um = jacobian.pseudo_inverse() @ (observed - refs.pixel_centroid)
    return refs.world_centroid + Vec3.from_array(delta_um / 1e3)


def acquire_reference(
    array: TransducerArray,
    medium: MediumConfig,
    commanded_focus: Vec3,
    cameras: tuple[CameraModel, CameraModel],
    *,
    scan_extent: float = 2.0,
    scan_step: float = 0.2,
    pixel_noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ReferencePoint:
    """Simulate acquiring one calibration pose.

    Focuses the array on ``commanded_focus`` and finds the |p| peak, where
    a captured bead would settle, by a compass search from the command: move
    to the best of the six axis neighbours at ``scan_step`` (mm) while that
    raises |p|, else halve the step, until it is below 1 um. Leaving the
    cube of span ``scan_extent`` (mm) around the command raises
    CalibrationError. The peak is projected through both cameras,
    optionally with pixel noise drawn from ``rng``, which must then be given.
    """
    if not (scan_step > 0 and scan_extent > 0 and np.isfinite([scan_step, scan_extent]).all()):
        raise ConfigurationError("scan extent and step must be finite and > 0")
    if not 0 <= pixel_noise_sigma < math.inf:  # also rejects NaN
        raise ConfigurationError(f"pixel_noise_sigma must be >= 0 and finite, got {pixel_noise_sigma}")
    if pixel_noise_sigma > 0 and rng is None:
        raise ConfigurationError("pixel_noise_sigma > 0 needs a seeded rng, so that reruns agree")
    holo = make_focus_hologram(array, commanded_focus, medium)
    peak = command = commanded_focus.as_array()
    peak_mag = abs(pressure_at_points(array, holo, peak[None], medium)[0])
    compass = np.vstack([np.eye(3), -np.eye(3)])
    step = scan_step
    while step >= _MIN_SCAN_STEP:
        around = peak + step * compass
        mags = np.abs(pressure_at_points(array, holo, around, medium))
        best = int(np.argmax(mags))
        if not mags[best] > peak_mag:
            step /= 2
            continue
        peak, peak_mag = around[best], mags[best]
        if np.max(np.abs(peak - command)) > scan_extent / 2:
            raise CalibrationError(
                f"|p| peak search left the {scan_extent} mm cube around {commanded_focus}"
            )
    world = Vec3.from_array(peak)
    cam_h, cam_v = cameras
    uv_h = np.array(project(cam_h, world))
    uv_v = np.array(project(cam_v, world))
    if pixel_noise_sigma > 0:
        uv_h = uv_h + rng.normal(0.0, pixel_noise_sigma, 2)
        uv_v = uv_v + rng.normal(0.0, pixel_noise_sigma, 2)
    return ReferencePoint(world, (float(uv_h[0]), float(uv_h[1])), (float(uv_v[0]), float(uv_v[1])))


# Most poses one reference lattice may hold (10x10x10); each costs a compass search.
MAX_LATTICE_POINTS = 1000


def lattice_points(
    center: Vec3, counts: tuple[int, int, int] = (2, 3, 4), spacing: float = 2.0
) -> list[Vec3]:
    """Axis-aligned reference lattice centered on ``center``."""
    nx, ny, nz = counts
    if min(nx, ny, nz) < 1:
        raise ConfigurationError(f"lattice counts must be >= 1, got {counts}")
    if nx * ny * nz > MAX_LATTICE_POINTS:
        raise ConfigurationError(
            f"lattice {nx}x{ny}x{nz} has {nx * ny * nz:,} points, more than {MAX_LATTICE_POINTS:,}"
        )
    out = []
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                out.append(
                    Vec3(
                        center.x + (ix - (nx - 1) / 2) * spacing,
                        center.y + (iy - (ny - 1) / 2) * spacing,
                        center.z + (iz - (nz - 1) / 2) * spacing,
                    )
                )
    return out


_UNITS = {"jacobian": "pixel per micrometer", "world": "millimeter", "pixel": "pixel"}


def calibration_to_dict(jacobian: JacobianMatrix, refs: ReferenceSet) -> dict:
    return {
        "format_version": 1,
        "units": dict(_UNITS),
        "row_order": list(ROW_ORDER),
        "jacobian": jacobian.matrix.tolist(),
        "reference_points": [
            {
                "world": [p.world.x, p.world.y, p.world.z],
                "pixel_h": list(p.pixel_h),
                "pixel_v": list(p.pixel_v),
            }
            for p in refs.points
        ],
    }


def calibration_from_dict(doc: dict) -> tuple[JacobianMatrix, ReferenceSet]:
    if "units" not in doc:
        raise CalibrationError("calibration document is missing its units block")
    units = doc["units"]
    for key, expected in _UNITS.items():
        if units.get(key) != expected:
            raise CalibrationError(
                f"calibration units[{key!r}] must be {expected!r}, got {units.get(key)!r}"
            )
    try:
        jac = JacobianMatrix(np.array(doc["jacobian"], dtype=float))
        points = tuple(
            ReferencePoint(
                Vec3.from_array(p["world"]),
                (float(p["pixel_h"][0]), float(p["pixel_h"][1])),
                (float(p["pixel_v"][0]), float(p["pixel_v"][1])),
            )
            for p in doc["reference_points"]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise CalibrationError(f"malformed calibration document: {exc!r}") from exc
    return jac, ReferenceSet(points)


def save_calibration(path, jacobian: JacobianMatrix, refs: ReferenceSet) -> None:
    doc = calibration_to_dict(jacobian, refs)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_calibration(path) -> tuple[JacobianMatrix, ReferenceSet]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(f"cannot load calibration from {path}: {exc}") from exc
    return calibration_from_dict(doc)


def default_calibration() -> tuple[JacobianMatrix, ReferenceSet]:
    """Packaged factory calibration at native sensor resolution."""
    text = resources.files("acoustrap.data").joinpath("default_calibration.json").read_text()
    return calibration_from_dict(json.loads(text))


def build_camera_pair(
    vision: VisionConfig,
    jacobian: JacobianMatrix | None = None,
    refs: ReferenceSet | None = None,
) -> tuple[CameraModel, CameraModel]:
    """Camera models consistent with a calibration at the configured scale.

    The calibration is taken to be at native resolution; Jacobian rows and
    reference pixels shrink by ``vision.scale`` so that rendered frames,
    projections, and localization all agree. Both cameras are anchored at
    the reference set's centroid, which is the point itself for a set of one.
    """
    if jacobian is None or refs is None:
        jac0, refs0 = default_calibration()
        jacobian = jacobian or jac0
        refs = refs or refs0
    s = vision.scale
    ref_pixels = refs.pixel_centroid * s
    cam_h, cam_v = (
        CameraModel(
            jacobian.camera_rows(which) * s,
            ref_pixels[k : k + 2],
            refs.world_centroid,
            image_size=vision.image_size,
            noise_sigma=vision.noise_sigma,
            background=vision.background,
            particle_level=vision.particle_level,
        )
        for k, which in ((0, "h"), (2, "v"))
    )
    return cam_h, cam_v
