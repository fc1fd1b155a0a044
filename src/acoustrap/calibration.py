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
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .config import VisionConfig
from .core import MAX_ARRAY_LENGTH_MM, MediumConfig, TransducerArray, Vec3, _dot
from .errors import CalibrationError, ConfigurationError
from .field import pressure_and_gradient_at_points
from .hologram import PhaseHologram, make_focus_hologram
from .vision import CameraModel, KeyedDraws, project

# Unused here, but perfbench/tracing.py patches it at this lookup site
# (``PATCHES``) and fails when the name is missing.
from .field import pressure_at_points  # noqa: F401

ROW_ORDER = ("u_h", "v_h", "u_v", "v_v")

# Motion sets whose smallest singular value falls below this fraction of
# the largest are rejected as not spanning 3-D.
_RANK_TOL = 1e-9

# The peak search gives up once its trust radius falls below this, mm (1 um).
_MIN_SCAN_STEP = 1e-3

# A step of the peak search shorter than this, mm, is taken unchecked and ends it.
_MIN_NEWTON_STEP = 1e-6

# Forward-difference offset of the peak search's Hessian, mm.
_HESSIAN_STEP = 1e-5

# The peak search's one kernel call per iteration: the point and its three
# forward-difference neighbours.
_PROBE_OFFSETS = np.vstack([np.zeros(3), _HESSIAN_STEP * np.eye(3)])

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


def _cofactors(a) -> list[list[float]]:
    """Cofactors of the 3x3 matrix ``a`` in Python floats: a's inverse is
    their transpose over det a = a[0] . cof[0]."""
    return [
        [
            a[(p + 1) % 3][(q + 1) % 3] * a[(p + 2) % 3][(q + 2) % 3]
            - a[(p + 1) % 3][(q + 2) % 3] * a[(p + 2) % 3][(q + 1) % 3]
            for q in range(3)
        ]
        for p in range(3)
    ]


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
    cof = _cofactors(a)
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


def _probe(
    array: TransducerArray, holo: PhaseHologram, point: np.ndarray, medium: MediumConfig
) -> tuple[float, list[float], list[list[float]]]:
    """f = |p / A|^2 at ``point``, A the emission amplitude, its gradient
    2 Re(conj(p) grad p) / A^2 and its Hessian from forward differences of
    that gradient, in one 4-point kernel call; Python floats. f is |p|^2 of
    a unit drive, so squaring overflows nowhere that |p| stays finite. An
    overflow shows as a non-finite value, not as a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, grad = pressure_and_gradient_at_points(array, holo, point + _PROBE_OFFSETS, medium)
        p, grad = p / array.emission_amplitude, grad / array.emission_amplitude
        g = (2 * (p.real[:, None] * grad.real + p.imag[:, None] * grad.imag)).tolist()
    d = [[(b - a) / _HESSIAN_STEP for a, b in zip(g[0], row)] for row in g[1:]]
    hess = [[0.5 * (d[i][j] + d[j][i]) for j in range(3)] for i in range(3)]
    mag = abs(complex(p[0]))
    return mag * mag, g[0], hess


def _ascent_step(g: list[float], hess: list[list[float]], radius: float) -> list[float]:
    """The Newton step -H^-1 g toward the maximum, solved through the
    cofactors of -H, or the gradient's direction where -H is not positive
    definite (Sylvester's leading minors), the step is not finite or it does
    not ascend; either clipped to ``radius``."""
    a = [[-x for x in row] for row in hess]
    cof = _cofactors(a)
    det = _dot(a[0], cof[0])
    step = [0.0, 0.0, 0.0]
    if a[0][0] > 0 and cof[2][2] > 0 and det > 0:  # -H positive definite
        step = [_dot([cof[q][p] for q in range(3)], g) / det for p in range(3)]  # (-H)^-1 g
    length = math.hypot(*step)
    if not (math.isfinite(length) and _dot(step, g) > 0):
        step, length = g, math.hypot(*g)
    scale = min(1.0, radius / length) if length > 0 else 0.0
    return [scale * x for x in step]


def acquire_reference(
    array: TransducerArray,
    medium: MediumConfig,
    commanded_focus: Vec3,
    cameras: tuple[CameraModel, CameraModel],
    *,
    scan_extent: float = 2.0,
    scan_step: float = 0.2,
    pixel_noise_sigma: float = 0.0,
    noise_key: int | tuple[int, ...] | None = None,
) -> ReferencePoint:
    """Simulate acquiring one calibration pose.

    Focuses the array on ``commanded_focus`` and finds the |p| peak, where
    a captured bead would settle, by a safeguarded Newton ascent on |p|^2
    from the command. Each iteration is one 4-point kernel call: the
    closed-form gradient at the point and at three neighbours 1e-5 mm away,
    whose differences give the Hessian. The step is the Newton step, or the
    gradient's direction where that does not ascend, clipped to a trust
    radius that starts at ``scan_step`` (mm). A trial point is kept only if
    |p| rises there, else the radius halves; below 1 um the best point found
    is the peak. A step under 1e-6 mm is taken unchecked and ends the
    search. On the default lattice that is 3 calls a pose. |p| or its
    gradient overflowing, or leaving the cube of span ``scan_extent`` (mm)
    around the command, raises CalibrationError. The peak is projected through both
    cameras, plus ``pixel_noise_sigma`` (at most the sensor's larger side)
    times normal draws 0-3 of row 0 of ``noise_key``: (u, v) of camera h,
    then of v.
    """
    if not (scan_step > 0 and scan_extent > 0 and np.isfinite([scan_step, scan_extent]).all()):
        raise ConfigurationError("scan extent and step must be finite and > 0")
    sensor_px = max(max(cam.image_size) for cam in cameras)
    if not 0 <= pixel_noise_sigma <= sensor_px:  # also rejects NaN
        raise ConfigurationError(
            f"pixel_noise_sigma must be >= 0 and at most the sensor's {sensor_px} px,"
            f" got {pixel_noise_sigma}"
        )
    if pixel_noise_sigma > 0 and noise_key is None:
        raise ConfigurationError("pixel_noise_sigma > 0 needs a noise_key, so that reruns agree")
    holo = make_focus_hologram(array, commanded_focus, medium)
    command = commanded_focus.as_array().tolist()
    peak = command
    radius = float(scan_step)
    value, g, hess = _probe(array, holo, np.array(peak), medium)
    while radius >= _MIN_SCAN_STEP:
        if not all(map(math.isfinite, [value, *g])):
            raise CalibrationError(
                f"|p| or its gradient overflows near {commanded_focus}; there is no peak to search"
            )
        step = _ascent_step(g, hess, radius)
        trial = [x + s for x, s in zip(peak, step)]
        last = math.hypot(*step) < _MIN_NEWTON_STEP
        if not last:
            trial_value, trial_g, trial_hess = _probe(array, holo, np.array(trial), medium)
            if not trial_value > value:
                radius /= 2
                continue
            value, g, hess = trial_value, trial_g, trial_hess
        peak = trial
        if max(abs(x - c) for x, c in zip(peak, command)) > scan_extent / 2:
            raise CalibrationError(
                f"|p| peak search left the {scan_extent} mm cube around {commanded_focus}"
            )
        if last:
            break
    world = Vec3(*peak)
    pixels = [x for cam in cameras for x in project(cam, world)]
    if pixel_noise_sigma > 0:
        draws = KeyedDraws(noise_key)
        pixels = [x + pixel_noise_sigma * draws.normal(0, col) for col, x in enumerate(pixels)]
    return ReferencePoint(world, tuple(pixels[:2]), tuple(pixels[2:]))


# Most poses one reference lattice may hold (10x10x10); each costs a peak search.
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
