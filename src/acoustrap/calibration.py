"""Eye-to-hand calibration between the trap frame and the camera pair.

A calibration is a 4x3 image Jacobian, stacking both cameras' pixel
sensitivities to world motion (rows u_h, v_h, u_v, v_v; pixel per
micrometer), and a reference set whose centroid anchors it. Calibrations
are stored at native sensor resolution, the packaged factory one and
those ``acoustrap calibrate`` writes alike. ``build_camera_pair`` turns
one into the camera pair at the rendered scale, and that pair is the only
hand-eye model the simulation uses; a camera's sensor is its ``vision``.
It renders the frames, and ``localize`` inverts its stacked rows J through
the Moore-Penrose pseudo-inverse around the cameras' shared anchor:
world = anchor_world + pinv(J) @ (pixels - anchor_pixels). Both directions
run in Python floats, ``project`` and pinv(J) with its product alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .config import VisionConfig
from .core import MAX_ARRAY_LENGTH_MM, MediumConfig, TransducerArray, Vec3, _dot
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

# Largest reference pixel coordinate a calibration file may hold: far past
# the 2448 px native sensor, and far from overflowing a centroid.
MAX_REFERENCE_PIXEL = 1e9


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
        # their centroid is the cameras' reference pixel, unchecked past here
        for k, p in enumerate(pts):
            if not all(abs(x) <= MAX_REFERENCE_PIXEL for x in (*p.pixel_h, *p.pixel_v)):  # also rejects NaN
                raise CalibrationError(
                    f"calibration reference point {k} has pixels {p.pixel_h} and {p.pixel_v};"
                    f" each must be finite and within ±{MAX_REFERENCE_PIXEL:g} px"
                )
        object.__setattr__(self, "points", pts)

    @property
    def world_centroid(self) -> Vec3:
        arr = np.mean([p.world.as_array() for p in self.points], axis=0)
        return Vec3(*arr.tolist())

    @property
    def pixel_centroid(self) -> np.ndarray:
        """(4,) centroid in ``ROW_ORDER``."""
        stacked = np.array(
            [[p.pixel_h[0], p.pixel_h[1], p.pixel_v[0], p.pixel_v[1]] for p in self.points],
            dtype=float,
        )
        return stacked.mean(axis=0)


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


@lru_cache(maxsize=8)
def _pair_inverse(rows_h: tuple, rows_v: tuple) -> tuple[tuple[float, ...], ...]:
    """(3, 4) pseudo-inverse (J^T J)^-1 J^T of a pair's stacked rows J, each
    camera's ``rows_of_j``. Its rows are Python floats, and so is every
    step, J^T J inverted through its cofactors: the bits do not depend on
    the BLAS or LAPACK kernel the CPU selects. Its relative error grows with
    the square of J's condition number, which is 1.42 for the factory pair."""
    j = [*rows_h, *rows_v]
    columns = list(zip(*j))
    a = [[_dot(p, q) for q in columns] for p in columns]  # J^T J
    cof = [
        [
            a[(p + 1) % 3][(q + 1) % 3] * a[(p + 2) % 3][(q + 2) % 3]
            - a[(p + 1) % 3][(q + 2) % 3] * a[(p + 2) % 3][(q + 1) % 3]
            for q in range(3)
        ]
        for p in range(3)
    ]
    det = _dot(a[0], cof[0])
    inv = [[cof[q][p] / det for q in range(3)] for p in range(3)]  # the adjugate over det
    return tuple(tuple(_dot(row, j_row) for j_row in j) for row in inv)


def localize(
    cameras: tuple[CameraModel, CameraModel],
    pixel_h: tuple[float, float],
    pixel_v: tuple[float, float],
) -> Vec3:
    """World position (mm) from one observation per camera of the pair.

    The pair's pseudo-inverse is computed once per pair of rows and kept
    (``_pair_inverse``), so every call after the first is a (3, 4) product,
    taken in Python floats like the inverse.
    """
    cam_h, cam_v = cameras
    if cam_h.ref_world != cam_v.ref_world:
        raise ConfigurationError(
            f"the cameras are anchored at different world points, {cam_h.ref_world} and"
            f" {cam_v.ref_world}; build the pair with build_camera_pair"
        )
    anchor = cam_h.ref_pixel + cam_v.ref_pixel
    d = [float(x) - a for x, a in zip((pixel_h[0], pixel_h[1], pixel_v[0], pixel_v[1]), anchor)]
    inverse = _pair_inverse(cam_h.rows_of_j, cam_v.rows_of_j)
    x, y, z = (_dot(row, d) / 1e3 for row in inverse)
    return cam_h.ref_world + Vec3(x, y, z)


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
    optionally with pixel noise drawn from ``rng``, which must then be given
    and at most the larger side of the cameras' sensor.
    """
    if not (scan_step > 0 and scan_extent > 0 and np.isfinite([scan_step, scan_extent]).all()):
        raise ConfigurationError("scan extent and step must be finite and > 0")
    sensor_px = max(max(cam.image_size) for cam in cameras)
    if not 0 <= pixel_noise_sigma <= sensor_px:  # also rejects NaN
        raise ConfigurationError(
            f"pixel_noise_sigma must be >= 0 and at most the sensor's {sensor_px} px,"
            f" got {pixel_noise_sigma}"
        )
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
    world = Vec3(*peak.tolist())
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
    if not isinstance(doc, dict):
        raise CalibrationError(f"calibration document must be a mapping, got {type(doc).__name__}")
    units = doc.get("units")
    if not isinstance(units, dict):
        raise CalibrationError(f"calibration document needs a units mapping, got {units!r}")
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
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, ConfigurationError) as exc:
        raise CalibrationError(f"malformed calibration document: {exc!r}") from exc
    # like array.origin, so that projecting a point onto the cameras stays finite
    if not np.all(np.abs([p.world.as_array() for p in points]) <= MAX_ARRAY_LENGTH_MM):
        raise CalibrationError(f"calibration reference points must lie within ±{MAX_ARRAY_LENGTH_MM:g} mm")
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
    calibration: tuple[JacobianMatrix, ReferenceSet] | None = None,
) -> tuple[CameraModel, CameraModel]:
    """The camera pair of a native calibration, as ``default_calibration``
    and ``load_calibration`` return it (the factory one when None), at the
    configured scale.

    Jacobian rows and reference pixels shrink by ``vision.scale`` so that
    rendered frames, projections and localization all agree. Both cameras
    are anchored at the reference set's centroid, which is the point itself
    for a set of one.
    """
    jacobian, refs = calibration or default_calibration()
    rows = [tuple(row) for row in (jacobian.matrix * vision.scale).tolist()]
    pixels, anchor = (refs.pixel_centroid * vision.scale).tolist(), refs.world_centroid
    return tuple(
        CameraModel((rows[k], rows[k + 1]), (pixels[k], pixels[k + 1]), anchor, vision) for k in (0, 2)
    )
