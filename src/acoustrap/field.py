"""Acoustic pressure field evaluation and trap quality metrics.

The field is a superposition of simple point sources: element i driven
with phase phi_i contributes ``A / d_i * exp(j * (phi_i - k * d_i))`` at
distance ``d_i``. No attenuation and no boundary reflections are modeled;
the tank walls only bound where evaluation is allowed. An optional
square-piston far-field directivity factor per element can be switched on
for pressure values and slices through the field configuration.

One float64 kernel evaluates the sum and, for the Gor'kov potential, the
gradient of the undirected sum in closed form. It spreads chunks of about
80k source-point pairs over threads, so that each chunk's temporaries stay
in cache and are reused from the heap.

A pressure call whose points all share an x (or y) coordinate folds the
array's rows (or columns) first: elements at equal distance from that
coordinate, such as mirror twins about a slice plane through the array's
centre line, become one source with their summed drive. Within such a
class d is equal and the piston factor even, so the terms differ only in
their drives. An xoz slice on the centre line then costs half the
source-point pairs and an axial line scan above the centre a quarter. The
result is exact up to rounding. A call of a few points does not fold,
since folding has a fixed cost that only many points repay. The gradient
never folds, since (r - c) differs in sign across a twin pair.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    TWO_PI,
    Contrast,
    MediumConfig,
    ParticleState,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    _cos_sin,
    usable_cpus,
    wavelength,
)
from .errors import ConfigurationError, GeometryError, SingularityError
from .hologram import (
    MIN_SOURCE_DISTANCE,
    FocusTrap,
    OctahedralTrap,
    PhaseHologram,
    TrapSpec,
    octahedron_vertexes,
)

# Source-point pairs per evaluation chunk: 32 points at the default 2500
# elements. Each float64 (points, elements) temporary is then about 640 KB,
# small enough to stay in cache and, once the process has freed a larger
# array (which raises glibc's trim threshold), to be reused from the heap
# instead of being mapped and zero-filled afresh on every chunk. Calls of a
# few dozen points still split over more than one CPU.
_CHUNK_PAIRS = 80_000

# A fold runs only when it saves more source-point pairs than this. Its
# fixed cost (the tie search, the class sums and each class's drive) is
# about 60 to 180 us. Timed against the unfolded call at the default 2,500
# elements (best of 5 x 30 calls, 5 alternating rounds, 2-core x86-64),
# folding both axes cost 1.06x at 6 points (11,250 pairs saved) and 0.64x
# at 7 (13,125); folding one axis cost 1.09x at 7 points (8,750) and 0.71x
# at 8 (10,000). No call of 6 points or fewer folds.
_FOLD_MIN_SAVED_PAIRS = 12_000

# Most points one field slice may hold: about 80 MB of coordinates and
# pressures, and over ten times the CLI's default slice of about 170k points.
MAX_GRID_POINTS = 2_000_000

# Monopole (f1) and dipole (f2) scattering coefficients for the two
# contrast classes in water: rigid polymer bead vs compressible silicone
# bead. Representative textbook values; only signs and rough magnitudes
# matter for trap topology.
CONTRAST_COEFFS = {
    Contrast.POSITIVE: (0.61, 0.032),
    Contrast.NEGATIVE: (-1.19, 0.019),
}


def check_grid_size(spans, step: float, what: str) -> None:
    """Reject a grid of ``arange(lo, lo + span + step / 2, step)`` axes with
    more than MAX_GRID_POINTS points; counted before anything is allocated,
    in Python floats, which overflow to inf without a warning."""
    step = float(step)
    points = math.prod((float(span) + step / 2) / step for span in spans)
    if points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"{what} would hold about {points:.3g} points, more than the limit of"
            f" {MAX_GRID_POINTS:,}; use a coarser step"
        )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ConfigurationError(f"points must be (N, 3), got shape {pts.shape}")
    return pts


def _field(
    array: TransducerArray,
    hologram: PhaseHologram,
    pts: np.ndarray,
    medium: MediumConfig,
    *,
    directivity: bool = False,
    gradient: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Complex pressure (N,) at the rows of ``pts`` (N, 3) and, when
    ``gradient`` is set, its gradient (N, 3) per mm in closed form. The
    gradient has no piston factor, so it excludes ``directivity``.

    The points are cut into chunks of at most ``_CHUNK_PAIRS`` source-point
    pairs, evaluated on a thread pool sized from the usable CPUs (numpy
    releases the GIL) and joined in order. The chunks depend only on the
    numbers of points and of folded elements, so the result is
    bit-identical for any worker count. No thread outlives the call.

    Without ``gradient``, equidistant elements fold first (see the module
    docstring) when that saves more than ``_FOLD_MIN_SAVED_PAIRS`` pairs.
    When nothing folds, the arithmetic is unchanged.
    """
    if hologram.shape != (array.rows, array.cols):
        raise ConfigurationError(
            f"hologram shape {hologram.shape} does not match array {array.rows}x{array.cols}"
        )
    if directivity and gradient:
        raise ConfigurationError("the closed-form gradient has no piston directivity")
    lam = wavelength(medium, array)
    grid = array.element_centers().reshape(array.rows, array.cols, 3)
    axes = [grid[:, 0, 0], grid[0, :, 1]]
    phases, magnitudes = hologram.phases.reshape(-1), None
    # (r - c) is odd across a twin pair, so the gradient never folds. At most
    # two elements of an axis lie at one distance from the points, so the tie
    # search is skipped when even halving both axes would save too few pairs.
    least_kept = -(-array.rows // 2) * -(-array.cols // 2)
    folds = [None, None]
    if not gradient and len(pts) * (len(phases) - least_kept) > _FOLD_MIN_SAVED_PAIRS:
        folds = [_fold_axis(pts[:, a], axes[a]) for a in (0, 1)]
    kept = [len(ax) if f is None else len(f[1]) for f, ax in zip(folds, axes)]
    if len(pts) * (len(phases) - kept[0] * kept[1]) > _FOLD_MIN_SAVED_PAIRS:
        classes = [np.arange(len(ax)) if f is None else f[0] for f, ax in zip(folds, axes)]
        axes = [ax if f is None else f[1] for f, ax in zip(folds, axes)]
        # one drive per class: the sum of its members' exp(j phi)
        flat = (classes[0][:, None] * len(axes[1]) + classes[1]).reshape(-1)
        n = len(axes[0]) * len(axes[1])
        re, im = _cos_sin(0.5 * phases)
        re, im = np.bincount(flat, re, n), np.bincount(flat, im, n)
        phases, magnitudes = np.arctan2(im, re), np.hypot(re, im)
    evaluate = partial(
        _field_chunk,
        centers=grid.reshape(-1, 3),
        axes=(axes[0], axes[1], grid[0, 0, 2]),
        phases=phases,
        magnitudes=magnitudes,
        amplitude=array.emission_amplitude,
        k=TWO_PI / lam,
        piston=array.pitch / lam if directivity else None,
        gradient=gradient,
    )
    per_chunk = max(1, _CHUNK_PAIRS // len(phases))
    chunks = np.array_split(pts, max(1, math.ceil(pts.shape[0] / per_chunk)))
    workers = min(usable_cpus(), len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(evaluate, chunks))
    else:
        parts = [evaluate(chunk) for chunk in chunks]
    p = np.concatenate([part[0] for part in parts])
    grad = np.concatenate([part[1] for part in parts]) if gradient else None
    return p, grad


def _fold_axis(v: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Fold one array axis, element coordinates ``axis``, for points whose
    coordinates on it are ``v``: (class of each element, one member's
    coordinate per class), where a class holds the elements at the same
    distance from the points. None when the points differ on the axis or
    no two elements tie."""
    if not (len(v) and v.min() == v.max()):  # also None for NaN
        return None
    gap = np.abs(v[0] - axis)
    ordered = np.sort(gap)  # cheaper than np.unique when nothing ties
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    _, first, cls = np.unique(gap, return_index=True, return_inverse=True)
    return cls, axis[first]


def _field_chunk(
    pts: np.ndarray,
    *,
    centers: np.ndarray,
    axes: tuple[np.ndarray, np.ndarray, float],
    phases: np.ndarray,
    magnitudes: np.ndarray | None,
    amplitude: float,
    k: float,
    piston: float | None,
    gradient: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum the element terms T_i = A / d_i * exp(j * (phi_i - k * d_i)) * D_i
    over one chunk of points, and their gradients when asked. D_i is the
    piston factor when ``piston`` (element side over wavelength) is given,
    else 1; the gradient is only asked for with D_i = 1. ``magnitudes``, when
    given, scales each term: element i then stands for a folded class with
    drive magnitudes_i * exp(j * phi_i). The element positions form a grid:
    x from ``axes[0]`` by row, y from ``axes[1]`` by column, all at
    z = ``axes[2]``; ``centers`` lists them for the gradient, which never
    folds."""
    # |r - c| = sqrt((dx² + dy²) + dz²) in this order, which the digests pin
    dx2, dy2 = (np.subtract.outer(pts[:, a], axes[a]) for a in (0, 1))
    if piston is not None:
        # pi * piston * (r - c) / 2 per row and per column: the piston
        # factor's half-arguments times d; sinc(0) = 1, as in np.sinc
        hx, hy = (np.where(o == 0, 1e-20, o * (0.5 * np.pi * piston)) for o in (dx2, dy2))
    dx2 *= dx2  # in place: fewer temporaries per chunk
    dy2 *= dy2
    d = (dx2[:, :, None] + dy2[:, None, :]).reshape(len(pts), -1)
    d += ((pts[:, 2] - axes[2]) ** 2)[:, None]
    np.sqrt(d, out=d)
    if np.any(d < MIN_SOURCE_DISTANCE):
        raise SingularityError("field point coincides with an element center")
    inv_d = 1.0 / d
    weight = inv_d if piston is None else _piston_weight(inv_d, hx, hy)
    if magnitudes is not None:
        weight *= magnitudes
    half = d  # theta / 2, over the buffer of d
    half *= -0.5 * k
    half += 0.5 * phases
    t_re, t_im = _cos_sin(half)
    t_re *= weight  # Re exp(j theta) D / d
    t_im *= weight
    p = amplitude * (t_re.sum(axis=1) + 1j * t_im.sum(axis=1))
    if not gradient:
        return p, None

    # grad T_i = T_i (-jk - 1/d) (r - c_i) / d. Coefficients g of (r - c_i)
    # are summed as r * sum(g) - g @ c, in one BLAS call for their real and
    # imaginary parts.
    g = np.empty((2,) + d.shape)
    g_re, g_im = g
    np.multiply(t_im, k, out=g_re)
    g_re -= t_re * inv_d
    g_re *= inv_d  # Re[T (-1/d^2 - jk/d)] / A
    np.multiply(t_im, inv_d, out=g_im)
    g_im += t_re * k
    g_im *= -inv_d  # Im[T (-1/d^2 - jk/d)] / A
    sums = g.reshape(2 * pts.shape[0], -1) @ np.column_stack([centers, np.ones(len(centers))])
    sums_re, sums_im = np.split(sums, 2)
    grad = (pts * sums_re[:, 3:] - sums_re[:, :3]) + 1j * (pts * sums_im[:, 3:] - sums_im[:, :3])
    return p, amplitude * grad


def _piston_weight(w: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Multiply ``w`` = 1/d (points, rows * cols) in place by the piston
    factor sinc(2 h_x / pi) * sinc(2 h_y / pi), with half-arguments h = ``hx``
    (points, rows) or ``hy`` (points, cols) times 1/d, and return it.

    With t = tan(h), sin(2h) / 2h = t / (h (1 + t^2)): one tangent per axis.
    It stays finite past the tangent's pole at h = pi / 2, where t is near
    1.6e16 and t^2 stays finite.
    """
    w3 = w.reshape(len(w), hx.shape[1], hy.shape[1])
    h_x = hx[:, :, None] * w3
    h_y = hy[:, None, :] * w3
    t = np.empty_like(w3)
    for h in (h_x, h_y):
        np.tan(h, out=t)
        np.divide(t, h, out=h)
        t *= t
        t += 1.0
        h /= t
        w3 *= h
    return w


def pressure_at_points(
    array: TransducerArray,
    hologram: PhaseHologram,
    points: np.ndarray,
    medium: MediumConfig,
    *,
    directivity: bool = False,
) -> np.ndarray:
    """Complex pressure at each row of ``points`` (N, 3), array units."""
    p, _ = _field(array, hologram, _as_points(points), medium, directivity=directivity)
    return p


# Slice plane names map to (horizontal axis, vertical axis, fixed axis).
_PLANE_AXES = {"xoy": (0, 1, 2), "xoz": (0, 2, 1), "yoz": (1, 2, 0)}


@dataclass(frozen=True)
class PlaneSpec:
    """Axis-aligned slice plane: the named pair varies, ``offset`` fixes
    the remaining coordinate (z for xoy, y for xoz, x for yoz)."""

    plane: str
    offset: float

    def __post_init__(self) -> None:
        if self.plane not in _PLANE_AXES:
            raise ConfigurationError(
                f"plane must be one of {sorted(_PLANE_AXES)}, got {self.plane!r}"
            )
        if not math.isfinite(self.offset):
            raise ConfigurationError(f"plane offset must be finite, got {self.offset}")

    @property
    def axes(self) -> tuple[int, int, int]:
        return _PLANE_AXES[self.plane]


@dataclass(frozen=True)
class FieldSlice:
    """Complex pressure sampled on a regular grid in one plane.

    ``values[ia, ib]`` corresponds to first-axis coordinate
    ``origin[0] + ia * spacing`` and second-axis ``origin[1] + ib * spacing``.
    """

    plane: PlaneSpec
    origin: tuple[float, float]
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise ConfigurationError(f"slice values must be 2-D, got shape {arr.shape}")
        if self.spacing <= 0:
            raise ConfigurationError(f"slice spacing must be > 0, got {self.spacing}")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def axis_coords(self) -> tuple[np.ndarray, np.ndarray]:
        n1, n2 = self.values.shape
        a = self.origin[0] + self.spacing * np.arange(n1)
        b = self.origin[1] + self.spacing * np.arange(n2)
        return a, b

    def world_point(self, ia: int, ib: int) -> Vec3:
        ax_a, ax_b, ax_fixed = self.plane.axes
        coords = [0.0, 0.0, 0.0]
        coords[ax_a] = self.origin[0] + ia * self.spacing
        coords[ax_b] = self.origin[1] + ib * self.spacing
        coords[ax_fixed] = self.plane.offset
        return Vec3(*coords)


def field_slice(
    array: TransducerArray,
    hologram: PhaseHologram,
    plane: PlaneSpec,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    resolution: float,
    medium: MediumConfig,
    *,
    directivity: bool = False,
    workspace: WorkspaceConfig | None = None,
) -> FieldSlice:
    """Sample the field over a rectangular window of a slice plane.

    ``bounds`` are ((a_min, a_max), (b_min, b_max)) along the plane's two
    free axes. Both ends are included when the span divides evenly.
    """
    (a_min, a_max), (b_min, b_max) = bounds
    if not 0 < resolution < math.inf:  # also rejects NaN
        raise ConfigurationError(f"resolution must be finite and > 0, got {resolution}")
    if not (a_max > a_min and b_max > b_min):
        raise ConfigurationError(
            f"degenerate slice bounds ({a_min}, {a_max}) x ({b_min}, {b_max})"
        )
    check_grid_size((a_max - a_min, b_max - b_min), resolution, "slice grid")
    lam = wavelength(medium, array)
    if resolution > lam / 4:
        warnings.warn(
            f"slice resolution {resolution:.4g} mm is coarser than a quarter wavelength"
            f" ({lam / 4:.4g} mm); structure will alias",
            stacklevel=2,
        )
    a = np.arange(a_min, a_max + resolution / 2, resolution)
    b = np.arange(b_min, b_max + resolution / 2, resolution)
    ax_a, ax_b, ax_fixed = plane.axes
    grid = np.zeros((a.size, b.size, 3))
    grid[..., ax_a] = a[:, None]
    grid[..., ax_b] = b[None, :]
    grid[..., ax_fixed] = plane.offset
    pts = grid.reshape(-1, 3)
    if workspace is not None and not workspace.tank_contains_points(pts):
        raise GeometryError("slice grid extends outside the tank bounds")
    values = pressure_at_points(array, hologram, pts, medium, directivity=directivity)
    return FieldSlice(plane, (float(a_min), float(b_min)), float(resolution), values.reshape(a.size, b.size))


@dataclass(frozen=True)
class TrapQuality:
    """Figures of merit for a synthesized trap.

    Octahedral traps report the center/vertex magnitudes and their ratio;
    focus traps report the peak and half-maximum widths of the lateral and
    axial line scans. Unused entries are None.
    """

    center_magnitude: float | None = None
    vertex_magnitudes: tuple[float, ...] | None = None
    contrast_ratio: float | None = None
    focal_peak: float | None = None
    lateral_fwhm: float | None = None
    axial_fwhm: float | None = None


def _fwhm(coords: np.ndarray, mags: np.ndarray) -> float:
    """Width of the half-maximum region around the global peak.

    Crossings are linearly interpolated; if the profile never drops below
    half maximum on one side, the scan edge bounds the width.
    """
    peak_idx = int(np.argmax(mags))
    half = mags[peak_idx] / 2.0
    left = coords[0]
    for i in range(peak_idx, 0, -1):
        if mags[i - 1] < half:
            frac = (mags[i] - half) / (mags[i] - mags[i - 1])
            left = coords[i] - frac * (coords[i] - coords[i - 1])
            break
    right = coords[-1]
    for i in range(peak_idx, mags.size - 1):
        if mags[i + 1] < half:
            frac = (mags[i] - half) / (mags[i] - mags[i + 1])
            right = coords[i] + frac * (coords[i + 1] - coords[i])
            break
    return float(right - left)


def trap_quality(
    array: TransducerArray,
    hologram: PhaseHologram,
    trap: TrapSpec,
    medium: MediumConfig,
) -> TrapQuality:
    """Probe the field a hologram produces at the trap's working points."""
    lam = wavelength(medium, array)
    if isinstance(trap, OctahedralTrap):
        pts = [trap.center.as_array()] + [
            v.as_array() for v in octahedron_vertexes(trap.center, trap.diameter)
        ]
        mags = np.abs(pressure_at_points(array, hologram, np.array(pts), medium))
        center = float(mags[0])
        vertex = tuple(float(m) for m in mags[1:])
        return TrapQuality(
            center_magnitude=center,
            vertex_magnitudes=vertex,
            contrast_ratio=center / float(np.mean(mags[1:])),
        )
    if isinstance(trap, FocusTrap):
        step = lam / 20.0
        f = trap.point.as_array()
        lateral = np.arange(-2.0, 2.0 + step / 2, step)
        axial = np.arange(-6.0, 6.0 + step / 2, step)
        lat_pts = f + np.stack([lateral, np.zeros_like(lateral), np.zeros_like(lateral)], axis=1)
        ax_pts = f + np.stack([np.zeros_like(axial), np.zeros_like(axial), axial], axis=1)
        ax_pts = ax_pts[ax_pts[:, 2] > 0]
        lat_mags = np.abs(pressure_at_points(array, hologram, lat_pts, medium))
        ax_mags = np.abs(pressure_at_points(array, hologram, ax_pts, medium))
        return TrapQuality(
            focal_peak=float(max(lat_mags.max(), ax_mags.max())),
            lateral_fwhm=_fwhm(lateral, lat_mags),
            axial_fwhm=_fwhm(ax_pts[:, 2] - f[2], ax_mags),
        )
    raise ConfigurationError(f"unsupported trap type {trap!r}")


def gorkov_potential_at_points(
    array: TransducerArray,
    hologram: PhaseHologram,
    points: np.ndarray,
    medium: MediumConfig,
    particle: ParticleState,
    *,
    workspace: WorkspaceConfig | None = None,
) -> np.ndarray:
    """Small-sphere acoustic potential at each point, arbitrary units.

    Time-averaged second-order potential for a sphere much smaller than
    the wavelength: a monopole term from the mean square pressure minus a
    dipole term from the mean square velocity, with contrast-dependent
    coefficients. The velocity comes from the closed-form pressure
    gradient; no piston directivity is applied. With ``workspace`` given, a point closer to a tank wall than
    the particle radius raises GeometryError.
    """
    pts = _as_points(points)
    lam = wavelength(medium, array)
    radius_mm = particle.diameter_um / 1000.0 / 2.0
    if particle.diameter_um / 1000.0 > lam / 2:
        warnings.warn(
            f"particle diameter {particle.diameter_um:.0f} um exceeds half a wavelength;"
            " the small-sphere potential is only indicative",
            stacklevel=2,
        )
    if workspace is not None and not workspace.tank_contains_points(pts, margin=radius_mm):
        raise GeometryError(
            f"point lies closer to a tank wall than the particle radius ({radius_mm:.4g} mm)"
        )
    p, grad = _field(array, hologram, pts, medium, gradient=True)

    f1, f2 = CONTRAST_COEFFS[particle.contrast]
    volume = 4.0 / 3.0 * math.pi * radius_mm**3
    c_mm = medium.sound_speed * 1e3  # mm/s
    omega = TWO_PI * array.frequency
    mean_p_sq = 0.5 * np.abs(p) ** 2
    mean_v_sq = 0.5 * np.sum(np.abs(grad) ** 2, axis=1) / (medium.density * omega) ** 2
    potential = volume / 4.0 * (
        f1 * mean_p_sq / (medium.density * c_mm**2)
        - 1.5 * f2 * medium.density * mean_v_sq
    )
    return potential

