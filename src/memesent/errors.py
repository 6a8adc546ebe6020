"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: configuration/validation problems
exit with 2, runtime failures (diverged training, unwritable outputs)
with 1.
"""


class MemesentError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MemesentError):
    """Invalid run configuration or command-line arguments."""


class DataFormatError(MemesentError):
    """Malformed input data: CSV, embedding file, image, or model file."""


class TrainingError(MemesentError):
    """Training failed at runtime, e.g. the loss became non-finite."""


class NumericError(MemesentError):
    """A model's arithmetic left the finite range, e.g. its logits overflowed."""


class NotFittedError(MemesentError):
    """An estimator was used before ``fit`` was called."""


# the classes of error that the CLI exits with code 2 on
INPUT_ERRORS = (ConfigError, DataFormatError, ValueError, FileNotFoundError)
