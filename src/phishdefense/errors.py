"""Exception types shared across the package."""


class PhishDefenseError(Exception):
    """Base class for all package errors."""


class ShapeError(PhishDefenseError):
    """Tensor shapes are inconsistent with an operation's contract."""


class NumericError(PhishDefenseError):
    """NaN/Inf or other numeric contamination detected."""


class ConfigError(PhishDefenseError):
    """Model or training configuration is internally inconsistent."""


class DataError(PhishDefenseError):
    """Dataset loading or validation failure (includes line context)."""


class ModelFormatError(PhishDefenseError):
    """A PDM1 model file or a training checkpoint is not valid."""


class ModelCorruptionError(ModelFormatError):
    """PDM1 file has a valid shape but fails its CRC check."""


class ModelVersionError(ModelFormatError):
    """PDM1 file declares an unsupported version."""
