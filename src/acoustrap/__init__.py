"""acoustrap: deterministic simulator of an automated acoustic trapping
workcell.

The package covers the full pipeline: phase-only hologram synthesis for a
planar ultrasound array, point-source pressure field evaluation, a
virtual binocular microscope with feature extraction, eye-to-hand
calibration and localization, uniform-motion prediction, and a
closed-loop trapping controller with reproducible batch statistics.
"""

from .config import (
    Background,
    ControlConfig,
    FieldConfig,
    SimulatorConfig,
    TrapConfig,
    VisionConfig,
)
from .core import (
    Contrast,
    MediumConfig,
    ParticleState,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    wavelength,
)
from .errors import (
    AcoustrapError,
    CalibrationError,
    ConfigurationError,
    GeometryError,
    SingularityError,
)

__version__ = "0.1.0"

__all__ = [
    "AcoustrapError",
    "Background",
    "CalibrationError",
    "ConfigurationError",
    "ControlConfig",
    "Contrast",
    "FieldConfig",
    "GeometryError",
    "MediumConfig",
    "ParticleState",
    "SimulatorConfig",
    "SingularityError",
    "TimingConfig",
    "TransducerArray",
    "TrapConfig",
    "Vec3",
    "VisionConfig",
    "WorkspaceConfig",
    "wavelength",
    "__version__",
]
