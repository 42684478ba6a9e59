"""Semantic exception hierarchy.

Every error raised on purpose by this package derives from
:class:`OccuthreshError`, so callers (and the CLI) can distinguish
parameter/usage problems from verification failures.  Errors with extra
constructor arguments define ``__reduce__`` so they survive the pickling
that carries them out of a worker process.
"""


class OccuthreshError(Exception):
    """Base class for all errors raised by occuthresh."""


class ParameterError(OccuthreshError, ValueError):
    """A parameter is outside the domain of the requested operation."""


class ContractViolation(OccuthreshError, ValueError):
    """Inputs violate a documented precondition (shape/sum mismatches)."""


class EvaluationError(OccuthreshError, RuntimeError):
    """A user-supplied function returned a non-finite value."""

    def __init__(self, message: str, point: float):
        super().__init__(message)
        self.point = point

    def __reduce__(self):
        return type(self), (self.args[0], self.point)


class BracketError(OccuthreshError, ValueError):
    """Root finding was called without a sign change on the bracket."""


class CapacityError(OccuthreshError, RuntimeError):
    """An exact computation passed, or would pass, its internal work or memory budget."""


class RetryLimitError(OccuthreshError, RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):
        return type(self), (self.args[0], self.attempts)


class ParseError(OccuthreshError, ValueError):
    """A serialized document is malformed.

    ``line`` is the 1-based line number of the offending input line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):
        return type(self), (self.message, self.line)


class CertificateError(OccuthreshError, RuntimeError):
    """A numerical certificate check failed.

    ``check`` names the failed check and ``witness`` is the point at
    which it failed.
    """

    def __init__(self, check: str, witness: float, message: str):
        super().__init__(f"check {check!r} failed at {witness!r}: {message}")
        self.check = check
        self.witness = witness
        self.message = message

    def __reduce__(self):
        return type(self), (self.check, self.witness, self.message)
