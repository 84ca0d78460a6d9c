"""Exception types shared across the package.

The CLI maps ConfigurationError to exit code 1 and every other
DefktError (LoadError, NumericalError) to exit code 2.
"""


class DefktError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DefktError):
    """Invalid configuration: bad shapes, inconsistent settings, data too small for a setting."""


class LoadError(DefktError):
    """A data, model or output file could not be read or written; the message names the file."""


class NumericalError(DefktError):
    """A non-finite value appeared during training; the run aborts."""
