"""Exception hierarchy shared across the simulator.

The CLI maps these onto process exit codes; see ``acoustrap.cli``.
"""


class AcoustrapError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(AcoustrapError):
    """Invalid configuration value, file, or combination of settings."""


class GeometryError(AcoustrapError):
    """Geometrically impossible request (point on the array plane, bad bounds, ...)."""


class SingularityError(GeometryError):
    """Field evaluation requested at, or too close to, a source point."""


class CalibrationError(AcoustrapError):
    """Calibration input is insufficient or degenerate."""
