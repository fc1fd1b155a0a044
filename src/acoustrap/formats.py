"""File formats: holograms as CSV, frames and field slices as PGM, run
manifests as JSON.

Everything written here is byte-reproducible for a given input: no
timestamps, stable key order, fixed float formatting.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .field import FieldSlice
from .hologram import PhaseHologram
from .vision import ImageFrame

_FLOAT_FMT = "%.9g"


def save_hologram_csv(path, hologram: PhaseHologram) -> None:
    """One CSV row per element row, 9 significant digits."""
    np.savetxt(path, hologram.phases, fmt=_FLOAT_FMT, delimiter=",")


def load_hologram_csv(path) -> PhaseHologram:
    """Load and re-wrap phases (rounding may push values to 2*pi)."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot load hologram from {path}: {exc}") from exc
    return PhaseHologram.from_radians(data)


def save_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5); uint8 or uint16 (written big-endian)."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigurationError(f"PGM image must be 2-D, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        maxval, payload = 255, arr.tobytes()
    elif arr.dtype == np.uint16:
        maxval, payload = 65535, arr.astype(">u2").tobytes()
    else:
        raise ConfigurationError(f"PGM image must be uint8 or uint16, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(payload)


def load_pgm(path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read PGM file {path}: {exc}") from exc
    match = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not match:
        raise ConfigurationError(f"{path} is not a binary PGM file")
    w, h, maxval = (int(match.group(i)) for i in (1, 2, 3))
    payload = data[match.end():]
    needed = w * h * (1 if maxval < 256 else 2)
    if len(payload) < needed:
        raise ConfigurationError(
            f"{path} is truncated: a {w}x{h} PGM needs {needed} payload bytes, found {len(payload)}"
        )
    if maxval < 256:
        arr = np.frombuffer(payload, dtype=np.uint8, count=w * h)
    else:
        arr = np.frombuffer(payload, dtype=">u2", count=w * h).astype(np.uint16)
    return arr.reshape(h, w).copy()


def load_frame_pgm(path, timestamp: float = 0.0) -> ImageFrame:
    arr = load_pgm(path)
    if arr.dtype != np.uint8:
        raise ConfigurationError(f"{path} is not an 8-bit frame")
    return ImageFrame(arr, timestamp)


_PLANE_AXIS_NAMES = {"xoy": ("x", "y"), "xoz": ("x", "z"), "yoz": ("y", "z")}


def save_field_slice_csv(path, fslice: FieldSlice) -> None:
    """Long-form CSV: one sampled point per row with the complex value."""
    name_a, name_b = _PLANE_AXIS_NAMES[fslice.plane.plane]
    a, b = fslice.axis_coords()
    aa, bb = np.meshgrid(a, b, indexing="ij")
    values = fslice.values
    table = np.column_stack(
        [aa.ravel(), bb.ravel(), values.real.ravel(), values.imag.ravel(), np.abs(values).ravel()]
    )
    header = (
        f"plane={fslice.plane.plane} offset={fslice.plane.offset:.9g}"
        f" spacing={fslice.spacing:.9g}\n"
        f"{name_a}_mm,{name_b}_mm,pressure_re,pressure_im,magnitude"
    )
    np.savetxt(path, table, fmt=_FLOAT_FMT, delimiter=",", header=header)


def slice_magnitude_pgm(path, fslice: FieldSlice) -> None:
    """16-bit magnitude map, min-max normalized over the slice."""
    mag = fslice.magnitude()
    lo, hi = float(mag.min()), float(mag.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((mag - lo) / span * 65535.0).astype(np.uint16)
    save_pgm(path, scaled)


MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def write_manifest(out_dir, command: list[str], seed: int | None, config_snapshot: dict, outputs: list[str]) -> Path:
    """Write the one manifest describing a command's output directory.

    Contents are restricted to reproducible facts (no timestamps, no
    host details): rerunning the same command yields an identical file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "manifest_version": MANIFEST_VERSION,
        "command": list(command),
        "seed": seed,
        "config": config_snapshot,
        "outputs": sorted(outputs),
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
