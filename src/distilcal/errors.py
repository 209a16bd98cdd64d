"""Exception types shared across the library."""


class DistilcalError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(DistilcalError, ValueError):
    """A scalar parameter (temperature, rank, bin count, ...) is out of range."""


class InvalidInputError(DistilcalError, ValueError):
    """An input array, record list, or file payload violates its contract."""


class ConfigurationError(DistilcalError, ValueError):
    """A training configuration is inconsistent with the requested method."""


class UnmappedTokenError(InvalidInputError):
    """A token has no image under the supplied unit map."""

    def __init__(self, token: str, source: str, target: str):
        self.token = token
        self.source = source
        self.target = target
        super().__init__(f"token {token!r} has no {source!r} -> {target!r} mapping")

    def __reduce__(self):
        # Pickle rebuilds from __init__'s arguments, not the formatted message.
        return type(self), (self.token, self.source, self.target), self.__dict__


class FileFormatError(InvalidInputError):
    """A line of an input file could not be parsed; carries the line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        self.detail = message
        super().__init__(f"{path}:{line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.line_no, self.detail), self.__dict__
