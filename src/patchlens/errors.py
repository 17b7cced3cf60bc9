"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: usage problems exit 1, data and
file-format problems exit 2, numeric failures exit 3.
"""


class PatchlensError(Exception):
    pass


class UsageError(PatchlensError):
    """Bad flags, bad configuration values, malformed command lines."""


class DataFormatError(PatchlensError):
    """Corrupt or inconsistent files: weight containers, manifests, images."""


class NumericError(PatchlensError):
    """Non-finite values, divergence, degenerate numeric conditions."""


class DeadPathError(NumericError):
    """A deconvolution reconstruction came back identically zero."""
