"""3D multi-object tracking: Kalman filtering, association, calibration,
evaluation, and synthetic data generation.

The API lives in the modules (``mot3d.tracker``, ``mot3d.metrics``, ...);
the package re-exports nothing.
"""

__version__ = "0.1.0"

from . import (association, calibration, core, dataset_io, errors, kalman,  # noqa: F401
               metrics, synthetic, tracker, viz)
