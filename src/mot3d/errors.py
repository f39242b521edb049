"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: NumericalError exits with 2, every
other Mot3dError exits with 1.
"""


class Mot3dError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(Mot3dError):
    """A file or record violates the expected schema.

    ``location`` names the offending scene / frame / record so the
    message pinpoints the bad input.
    """

    def __init__(self, message, location=""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class ConfigError(Mot3dError):
    """A run configuration is inconsistent or references unknown entries."""


class CalibrationError(Mot3dError):
    """Noise statistics cannot be estimated or are not usable."""


class SequencingError(Mot3dError):
    """Frames were supplied out of order or processed twice."""


class NumericalError(Mot3dError):
    """Filter arithmetic failed; carries the offending matrix's condition estimate, if any."""

    location = ""  # scene, frame, class and track, filled in by callers that know them

    def __init__(self, message, condition=None, row=None):
        self.condition = condition
        self.row = row  # the failing row of a stacked prediction
        super().__init__(message)

    def __str__(self):
        text = self.args[0]
        if self.condition is not None:
            text += f" (condition estimate: {self.condition:.3e})"
        return f"{self.location}: {text}" if self.location else text
