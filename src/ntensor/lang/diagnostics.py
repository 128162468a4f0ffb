"""Diagnostics and language-level errors, all carrying source positions."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NamedTensorError


@dataclass
class Diagnostic:
    """A checker finding: severity, 1-based position and message."""

    severity: str
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class SourceError(NamedTensorError):
    """An error at a source position, printed as ``line:col: error: message``."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: error: {message}")
        self.line = line
        self.col = col
        self.bare_message = message


class ParseError(SourceError):
    """A syntax error with its source position."""


class RunError(SourceError):
    """A runtime failure attributed to a source position."""
