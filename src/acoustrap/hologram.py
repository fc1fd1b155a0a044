"""Phase-only hologram synthesis for the transducer array.

Two synthesis routes are provided. The closed-form route assigns each
element the phase that makes its emission arrive in phase at a focal
point, and builds multi-point traps by spatially multiplexing the
aperture: the grid is tiled into 2x3 element blocks whose six members
each serve one trap point. The iterative route is a conventional
alternating-projection baseline retained for comparison; it is orders of
magnitude slower and exists to justify the closed-form choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    TWO_PI,
    MediumConfig,
    TransducerArray,
    Vec3,
    wavelength,
)
from .errors import ConfigurationError, GeometryError

# Distances below this are treated as a source singularity, mm.
MIN_SOURCE_DISTANCE = 1e-9

# Spatial multiplexing block shape: 2 rows x 3 cols = 6 groups, one per
# octahedron vertex.
SM_BLOCK_SHAPE = (2, 3)


def wrap_phase(values):
    """Map phase values (scalar or array, radians) onto [0, 2*pi)."""
    wrapped = np.mod(values, TWO_PI)
    # mod can round up to exactly 2*pi for tiny negative inputs; fold it.
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if np.ndim(values) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class PhaseHologram:
    """Per-element drive phases in radians, shaped like the element grid.

    Entries are always within [0, 2*pi); construct via ``from_radians``
    when the input may be unwrapped.
    """

    phases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.phases, dtype=float)
        if arr.ndim != 2:
            raise ConfigurationError(f"hologram phases must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("hologram phases must be finite")
        if arr.min(initial=0.0) < 0.0 or arr.max(initial=0.0) >= TWO_PI:
            raise ConfigurationError("hologram phases must lie in [0, 2*pi); use from_radians")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "phases", arr)

    @classmethod
    def from_radians(cls, values) -> "PhaseHologram":
        """Build a hologram from unwrapped phase values."""
        return cls(wrap_phase(np.asarray(values, dtype=float)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.phases.shape


@dataclass(frozen=True)
class FocusTrap:
    """Single focal point; holds negative-contrast particles at the peak."""

    point: Vec3


@dataclass(frozen=True)
class OctahedralTrap:
    """Six focal points on the axes around a pressure-null center.

    Holds positive-contrast particles at the central null. ``diameter``
    is the vertex-to-opposite-vertex span along each axis, mm.
    """

    center: Vec3
    diameter: float = DEFAULT_OCTAHEDRON_DIAMETER

    def __post_init__(self) -> None:
        if self.diameter < 0:
            raise ConfigurationError(f"trap diameter must be >= 0, got {self.diameter}")


TrapSpec = Union[FocusTrap, OctahedralTrap]


def trap_anchor(trap: TrapSpec) -> Vec3:
    """The point a contained particle is held at."""
    return trap.point if isinstance(trap, FocusTrap) else trap.center


def focus_phase(element: Vec3, focal: Vec3, wavelength_mm: float) -> float:
    """Drive phase aligning one element's arrival at ``focal``.

    The phase retards each emission by the propagation delay modulo one
    period: ``2*pi - mod(-(2*pi/lambda) * d, 2*pi)``, folded into
    [0, 2*pi).
    """
    if wavelength_mm <= 0 or not math.isfinite(wavelength_mm):
        raise GeometryError(f"wavelength must be positive, got {wavelength_mm}")
    d = element.distance_to(focal)
    if d < MIN_SOURCE_DISTANCE:
        raise GeometryError(f"focal point coincides with an element center (d={d:.3g} mm)")
    phase = TWO_PI - (-(TWO_PI / wavelength_mm) * d) % TWO_PI
    return wrap_phase(phase)


def _focus_phases(distances: np.ndarray, wavelength_mm: float) -> np.ndarray:
    """Vectorized form of ``focus_phase`` over a distance array."""
    if np.any(distances < MIN_SOURCE_DISTANCE):
        raise GeometryError("target point coincides with an element center")
    phases = TWO_PI - np.mod(-(TWO_PI / wavelength_mm) * distances, TWO_PI)
    return wrap_phase(phases)


def _require_above_plane(array: TransducerArray, point: Vec3, label: str) -> None:
    if point.z - array.origin.z <= 0:
        raise GeometryError(
            f"{label} must lie strictly above the array plane"
            f" (z={point.z} vs plane z={array.origin.z})"
        )


def make_focus_hologram(
    array: TransducerArray, focal: Vec3, medium: MediumConfig
) -> PhaseHologram:
    """Hologram focusing the whole aperture on a single point."""
    _require_above_plane(array, focal, "focal point")
    lam = wavelength(medium, array)
    centers = array.element_centers()
    d = np.linalg.norm(centers - focal.as_array(), axis=1)
    phases = _focus_phases(d, lam)
    return PhaseHologram(phases.reshape(array.rows, array.cols))


# Octahedron vertex order: +x, -x, +y, -y, +z, -z around the center.
def octahedron_vertexes(center: Vec3, diameter: float) -> tuple[Vec3, ...]:
    if diameter < 0:
        raise ConfigurationError(f"octahedron diameter must be >= 0, got {diameter}")
    r = diameter / 2.0
    return (
        Vec3(center.x + r, center.y, center.z),
        Vec3(center.x - r, center.y, center.z),
        Vec3(center.x, center.y + r, center.z),
        Vec3(center.x, center.y - r, center.z),
        Vec3(center.x, center.y, center.z + r),
        Vec3(center.x, center.y, center.z - r),
    )


@dataclass(frozen=True)
class SmAssignment:
    """Element-to-group map for spatial multiplexing.

    ``group[i, j]`` in 0..5 selects which trap point element (i, j)
    serves; each 2x3 block aligned to the grid origin contains every
    group exactly once.
    """

    group: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.group)
        if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
            raise ConfigurationError("assignment must be a 2-D integer array")
        if arr.min(initial=0) < 0 or arr.max(initial=0) > 5:
            raise ConfigurationError("assignment groups must be within 0..5")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "group", arr)

    def counts(self) -> np.ndarray:
        """Element count per group, length 6."""
        return np.bincount(self.group.ravel(), minlength=6)


def sm_assignment(array: TransducerArray) -> SmAssignment:
    """Tile the grid with 2x3 blocks; group = (i mod 2) * 3 + (j mod 3).

    Rows/cols that are not multiples of the block shape continue the
    cyclic pattern, so group populations stay within one partial
    block-row/column of each other.
    """
    br, bc = SM_BLOCK_SHAPE
    if array.rows < br or array.cols < bc:
        raise ConfigurationError(
            f"array {array.rows}x{array.cols} too small for {br}x{bc} multiplexing blocks"
        )
    i = np.arange(array.rows)[:, None]
    j = np.arange(array.cols)[None, :]
    return SmAssignment((i % br) * bc + (j % bc))


def multiplexed_hologram(
    array: TransducerArray,
    assignment: SmAssignment,
    targets: Sequence[Vec3],
    medium: MediumConfig,
) -> PhaseHologram:
    """Each element focuses on the target its assignment group selects."""
    if assignment.group.shape != (array.rows, array.cols):
        raise ConfigurationError(
            f"assignment shape {assignment.group.shape} does not match array"
            f" {array.rows}x{array.cols}"
        )
    targets = list(targets)
    if assignment.group.max(initial=0) >= len(targets):
        raise ConfigurationError(
            f"assignment references group {assignment.group.max()} but only"
            f" {len(targets)} targets given"
        )
    for t in targets:
        _require_above_plane(array, t, "trap point")
    lam = wavelength(medium, array)
    centers = array.element_centers().reshape(array.rows, array.cols, 3)
    tgt = np.array([t.as_array() for t in targets])
    per_element = tgt[assignment.group]
    d = np.linalg.norm(centers - per_element, axis=-1)
    return PhaseHologram(_focus_phases(d, lam))


def make_octahedral_hologram(
    array: TransducerArray, center: Vec3, diameter: float, medium: MediumConfig
) -> PhaseHologram:
    """Spatially multiplexed six-point trap around ``center``.

    A zero diameter degenerates to the plain focus hologram.
    """
    if diameter == 0:
        return make_focus_hologram(array, center, medium)
    vertexes = octahedron_vertexes(center, diameter)
    for v in vertexes:
        _require_above_plane(array, v, "octahedron vertex")
    return multiplexed_hologram(array, sm_assignment(array), vertexes, medium)


@dataclass(frozen=True)
class IterativeResult:
    """Outcome of the alternating-projection baseline."""

    hologram: PhaseHologram
    # Cost after each iteration: negative sum of |p| over the targets.
    cost_history: tuple[float, ...]


def ib_baseline_hologram(
    array: TransducerArray,
    targets: Sequence[Vec3],
    medium: MediumConfig,
    iterations: int = 200,
) -> IterativeResult:
    """Alternating projection between the aperture and the target set.

    Forward propagation is the same monopole model the field module uses;
    the source constraint keeps unit amplitude and free phase, the target
    constraint keeps phase and resets amplitude to the uniform goal.
    """
    targets = list(targets)
    if not targets:
        raise ConfigurationError("iterative synthesis needs at least one target")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    for t in targets:
        _require_above_plane(array, t, "target point")
    lam = wavelength(medium, array)
    k = TWO_PI / lam
    centers = array.element_centers()
    tgt = np.array([t.as_array() for t in targets])
    d = np.linalg.norm(tgt[:, None, :] - centers[None, :, :], axis=-1)
    if np.any(d < MIN_SOURCE_DISTANCE):
        raise GeometryError("target point coincides with an element center")
    transfer = np.exp(-1j * k * d) / d  # (targets, elements)
    adjoint = transfer.conj().T

    amplitude = array.emission_amplitude
    drive = amplitude * np.ones(array.element_count, dtype=complex)
    costs = []
    for _ in range(iterations):
        at_targets = transfer @ drive
        mags = np.abs(at_targets)
        safe = np.where(mags < 1e-300, 1.0, mags)
        goal = at_targets / safe  # unit amplitude, measured phase
        back = adjoint @ goal
        drive = amplitude * np.exp(1j * np.angle(back))
        costs.append(-float(np.abs(transfer @ drive).sum()))

    phases = wrap_phase(np.angle(drive))
    holo = PhaseHologram(phases.reshape(array.rows, array.cols))
    return IterativeResult(holo, tuple(costs))
