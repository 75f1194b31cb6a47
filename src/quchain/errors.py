"""Exception types shared across the package."""

from __future__ import annotations


class QuchainError(Exception):
    """Base class for all quchain errors."""


class ModelError(QuchainError):
    """A problem instance cannot be turned into a valid model."""


class ConfigError(QuchainError):
    """A user-supplied parameter is outside its valid range."""


class CapacityError(QuchainError):
    """A resource limit was exceeded (simulator size, chain length, ...)."""


class ParseError(QuchainError, ValueError):
    """Malformed input: a document, or a value a model judges.

    A :class:`ValueError` too, as :class:`json.JSONDecodeError` is, so a
    caller's ``except ValueError`` catches every located fault.
    ``location`` is a human-readable pointer: ``"line 4, col 12"`` for
    textual formats, ``"nodes[2].w"`` for structured ones.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class TaskNotFoundError(QuchainError):
    """No task with the given id exists in the store."""


class ResultUnavailableError(QuchainError):
    """Task has not completed; carries the current status."""

    def __init__(self, message: str, status: str):
        self.status = status
        super().__init__(message)
