"""Fixed reference kernels that measure the machine's current speed.

On a shared virtual machine the same code runs up to twice as slowly for
seconds to minutes at a time, while neighbours load the host's caches and
memory. Wall times from different runs then differ more than any change
worth measuring. The benchmark therefore times a reference kernel right
before and right after each timed operation and rescales the operation's
wall time to the speed at which the kernel takes its ``nominal_s``:

    scaled = wall * nominal_s / mean(kernel time before, kernel time after)

Each workload uses the kernel that does the same kind of work, on arrays of
similar sizes, so that a loaded host slows both alike:

- ``FRAME`` (trap workloads): one pass over a camera-sized frame like
  rendering and extraction do: fill, round and clip to 8 bits, a box
  filter, a threshold and a summed-area table.
- ``FIELD`` (field design): one chunk of a monopole sum like the field
  kernel's: point-to-element distances, then a complex exponential over
  them, summed per point.

The kernels belong to the benchmark and call nothing in acoustrap, so a
change to the package moves scaled times by as much as it moves wall times
on a quiet machine. Work that the package left running in the background
would slow the kernel as well; the raw wall times stay in the record.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

FRAME_SHAPE = (512, 612)
# Points x elements of a block of the monopole sum, an eighth of the field
# kernel's 1024-point chunk (the default array has 50 x 50 elements).
FIELD_SHAPE = (128, 2500)


def _frame_pass(frame: np.ndarray) -> int:
    # In place where it can be, so that the kernel's temporaries stay below
    # a trap workload's and do not set the peak resident set.
    img = frame.astype(float)
    img += 64.0
    np.rint(img, out=img)
    np.clip(img, 0.0, 255.0, out=img)
    pixels = img.astype(np.uint8)
    np.subtract(pixels, 64.0, out=img)
    local = ndimage.uniform_filter(img, size=21, mode="nearest")
    local += 10.0
    fg = img > local
    del img, local
    sat = np.zeros((fg.shape[0] + 1, fg.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(fg, axis=0), axis=1, out=sat[1:, 1:])
    return int(sat[-1, -1])


def _field_pass(points: np.ndarray, centres: np.ndarray, drive: np.ndarray) -> float:
    d = cdist(points, centres)
    p = (drive * np.exp(-1j * 0.73 * d) / d).sum(axis=1)
    return float(np.abs(p).max())


def _frame_inputs() -> tuple:
    return (np.random.default_rng(12345).integers(0, 128, FRAME_SHAPE, dtype=np.uint8),)


def _field_inputs() -> tuple:
    rng = np.random.default_rng(12345)
    points = rng.uniform(-20.0, 20.0, (FIELD_SHAPE[0], 3)) + [0.0, 0.0, 100.0]
    centres = rng.uniform(-50.0, 50.0, (FIELD_SHAPE[1], 3)) * [1.0, 1.0, 0.0]
    drive = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, FIELD_SHAPE[1]))
    return points, centres, drive


@dataclass
class Kernel:
    name: str
    work: Callable[..., object]
    make_inputs: Callable[[], tuple]
    # Median kernel time on the 2-vCPU machine where the benchmark was
    # added, in its usual state: scaled times read as seconds on it.
    nominal_s: float
    _inputs: tuple | None = field(default=None, repr=False)

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        if self._inputs is None:
            self._inputs = self.make_inputs()
        start = time.perf_counter()
        self.work(*self._inputs)
        return time.perf_counter() - start

    def settled_seconds(self, runs: int = 3) -> float:
        """Median kernel time over a few runs after a warm-up run, for a
        process that has not run the kernel before."""
        self.seconds()
        return statistics.median(self.seconds() for _ in range(runs))

    def scale(self, wall: float, before: float, after: float) -> float:
        """``wall`` rescaled to the speed at which the kernel takes nominal_s."""
        return wall * self.nominal_s * 2.0 / (before + after)


FRAME = Kernel("frame", _frame_pass, _frame_inputs, nominal_s=0.008)
FIELD = Kernel("field", _field_pass, _field_inputs, nominal_s=0.020)
