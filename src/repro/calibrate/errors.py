"""The calibration failure type, importable without the heavy machinery.

This module deliberately imports nothing from the rest of the library:
:mod:`repro.calibrate.presets` (itself imported during
``repro.clusters`` initialisation) and the heavyweight
measure/objective/search modules all share this exception type, so it
must sit below everything else in the package.
"""

from __future__ import annotations


class CalibrationError(RuntimeError):
    """A calibration stage cannot proceed (bad reference, failed run,
    missing optional dependency requested explicitly, ...)."""


__all__ = ["CalibrationError"]
