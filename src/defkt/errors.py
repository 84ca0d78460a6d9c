"""Exception types shared across the package.

The CLI maps ConfigurationError and InputError to exit code 1 and every
other DefktError (LoadError, NumericalError) to exit code 2.
"""


class DefktError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DefktError):
    """Invalid configuration: bad shapes, inconsistent settings, broken constraints."""


class InputError(DefktError):
    """A runtime argument is outside its valid range."""


class LoadError(DefktError):
    """A data or model file failed to load; the message names the file."""


class NumericalError(DefktError):
    """A non-finite value appeared during training; the run aborts."""
