"""Shared exception types, one per CLI failure category."""


class ConfigError(ValueError):
    """Invalid run configuration. The message may list several problems at once."""


class DataError(ValueError):
    """Malformed input data: CSV parse failures, bad shapes, non-finite values."""


class NumericError(RuntimeError):
    """Training or scoring produced non-finite values (divergence)."""


class ModelFileError(RuntimeError):
    """Model file cannot be loaded: bad magic, version, truncation, checksum or header."""
