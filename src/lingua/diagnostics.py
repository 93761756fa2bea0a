"""Source positions and parse diagnostics."""

from __future__ import annotations

from .record import record


class SourceSpan(metaclass=record):
    begin: int
    end: int
    line: int
    column: int

    def __post_init__(self) -> None:
        if self.begin > self.end:
            raise ValueError("span runs backwards")


class ParseDiagnostic(metaclass=record):
    span: SourceSpan
    message: str
    kind: str  # lexical | syntactic | keyword-misuse | too-deep

    def __post_init__(self) -> None:
        if not self.message:
            raise ValueError("diagnostic needs a message")


class LinguaParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def format_diagnostic(diag: ParseDiagnostic, filename: str = "<input>") -> str:
    return f"{filename}:{diag.span.line}:{diag.span.column}: {diag.kind}: {diag.message}"
