"""Exception hierarchy shared by all taskweave modules: a setting or input
from outside that fails is a ``ValidationError``, a broken precondition of a
call a ``ContractError``, a non-finite computation a ``NumericError``."""


class TaskweaveError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TaskweaveError):
    """A setting or input from outside failed validation: a spec, config,
    corpus or file, or settings that do not fit together (a batch larger
    than a task's samples). The message names the offending field."""


class ContractError(TaskweaveError):
    """A caller violated an operation precondition (shape mismatch,
    single-occurrence identity in a triplet batch, probe id missing
    from the gallery, a gallery out of id order, ...)."""


class NumericError(TaskweaveError):
    """A numeric computation produced non-finite values."""

    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message if layer is None else f"{message} (layer {layer})")
        self.layer = layer
