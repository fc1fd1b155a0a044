"""Phase-only hologram synthesis for the transducer array.

The closed-form routes give every element the phase that makes its
emission arrive in phase at that element's own target point. A focus
hologram points every element at one focal point; an octahedral cage
hologram tiles the aperture with 2x3 element blocks, element (i, j)
focusing on vertex ``(i mod 2) * 3 + (j mod 3)``, so each block serves
all six vertexes. The iterative route is a conventional
alternating-projection baseline retained for comparison; it is orders of
magnitude slower and exists to justify the closed-form choice. All
routes share one distance check: targets strictly above the array plane
and off every element centre.
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
    check_ranges,
    wavelength,
    within,
)
from .errors import ConfigurationError, GeometryError

# Distances below this are treated as a source singularity, mm.
MIN_SOURCE_DISTANCE = 1e-9


def wrap_phase(values: np.ndarray) -> np.ndarray:
    """Map phase values (radians) onto [0, 2*pi)."""
    wrapped = np.mod(values, TWO_PI)
    # mod can round up to exactly 2*pi for tiny negative inputs; fold it.
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


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
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("hologram phases must be finite")
        return cls(wrap_phase(values))

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
    diameter: float = within(DEFAULT_OCTAHEDRON_DIAMETER, 0.0)

    def __post_init__(self) -> None:
        check_ranges(self, "octahedral_trap")


TrapSpec = Union[FocusTrap, OctahedralTrap]


def trap_anchor(trap: TrapSpec) -> Vec3:
    """The point a contained particle is held at."""
    return trap.point if isinstance(trap, FocusTrap) else trap.center


def _element_distances(array: TransducerArray, points: np.ndarray, label: str) -> np.ndarray:
    """Distances from the element centres to ``points``, mm.

    ``points`` of shape (..., 3) broadcasts against the (elements, 3)
    centres: one row per element, or (targets, 1, 3) for a
    (targets, elements) matrix. Every point must lie strictly above the
    array plane and off every element centre.
    """
    z = points[..., 2]
    below = z - array.origin.z <= 0
    if np.any(below):
        raise GeometryError(
            f"{label} must lie strictly above the array plane"
            f" (z={float(z[below][0])} vs plane z={array.origin.z})"
        )
    d = np.linalg.norm(array.element_centers() - points, axis=-1)
    if np.any(d < MIN_SOURCE_DISTANCE):
        raise GeometryError(f"{label} coincides with an element center")
    return d


def _focus_elements(
    array: TransducerArray, targets: np.ndarray, medium: MediumConfig, label: str
) -> PhaseHologram:
    """Each element focuses on its own row of ``targets`` (elements, 3).

    The phase retards each emission by its propagation delay modulo one
    period, ``2*pi - mod(-(2*pi/lambda) * d, 2*pi)``, so every element's
    wave arrives at its target in phase.
    """
    d = _element_distances(array, targets, label)
    phases = TWO_PI - np.mod(-(TWO_PI / wavelength(medium, array)) * d, TWO_PI)
    return PhaseHologram(wrap_phase(phases).reshape(array.rows, array.cols))


def make_focus_hologram(
    array: TransducerArray, focal: Vec3, medium: MediumConfig
) -> PhaseHologram:
    """Hologram focusing the whole aperture on a single point."""
    targets = np.broadcast_to(focal.as_array(), (array.element_count, 3))
    return _focus_elements(array, targets, medium, "focal point")


# Octahedron vertex order: +x, -x, +y, -y, +z, -z around the center.
def octahedron_vertexes(center: Vec3, diameter: float) -> tuple[Vec3, ...]:
    if not 0 <= diameter < math.inf:
        raise ConfigurationError(f"octahedron diameter must be finite and >= 0, got {diameter}")
    r = diameter / 2.0
    return (
        Vec3(center.x + r, center.y, center.z),
        Vec3(center.x - r, center.y, center.z),
        Vec3(center.x, center.y + r, center.z),
        Vec3(center.x, center.y - r, center.z),
        Vec3(center.x, center.y, center.z + r),
        Vec3(center.x, center.y, center.z - r),
    )


def make_octahedral_hologram(
    array: TransducerArray, center: Vec3, diameter: float, medium: MediumConfig
) -> PhaseHologram:
    """Six-point trap around ``center``, spatially multiplexed over the
    aperture: element (i, j) focuses on vertex ``(i mod 2) * 3 + (j mod 3)``,
    so every 2x3 block of elements serves all six vertexes.

    A zero diameter degenerates to the plain focus hologram.
    """
    if diameter == 0:
        return make_focus_hologram(array, center, medium)
    vertexes = np.array([v.as_array() for v in octahedron_vertexes(center, diameter)])
    if array.rows < 2 or array.cols < 3:
        raise ConfigurationError(
            f"array {array.rows}x{array.cols} too small for 2x3 multiplexing blocks"
        )
    i, j = np.divmod(np.arange(array.element_count), array.cols)
    return _focus_elements(array, vertexes[(i % 2) * 3 + j % 3], medium, "octahedron vertex")


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
    tgt = np.array([t.as_array() for t in targets])
    d = _element_distances(array, tgt[:, None, :], "target point")
    k = TWO_PI / wavelength(medium, array)
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
