"""Exception hierarchy for the WEBDIS reproduction.

Every error raised by the library derives from :class:`WebDisError` so that
applications can catch library failures with a single ``except`` clause while
still being able to discriminate parse errors, protocol errors, and
simulation errors when they need to.
"""

from __future__ import annotations


class WebDisError(Exception):
    """Base class for all errors raised by this library."""


class UrlError(WebDisError):
    """An URL could not be parsed or resolved."""


class PreSyntaxError(WebDisError):
    """A Path Regular Expression failed to parse."""


class PreSemanticsError(WebDisError):
    """A structurally valid PRE is semantically unusable (e.g. empty alternation)."""


class DisqlSyntaxError(WebDisError):
    """A DISQL query failed to lex or parse.

    Carries the offending position so interactive front-ends can point at it.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DisqlSemanticsError(WebDisError):
    """A DISQL query parsed but is semantically invalid.

    Examples: a select list that references an undeclared table alias, a
    ``relinfon`` table without a delimiter, or a web-query with no start
    nodes.
    """


class SchemaError(WebDisError):
    """A relational operation referenced an unknown relation or attribute."""


class EvaluationError(WebDisError):
    """A node-query expression could not be evaluated against a tuple."""


class NetworkError(WebDisError):
    """Base class for simulated-network failures."""


class ConnectionRefusedError_(NetworkError):
    """The destination site has no listener on the requested port.

    Named with a trailing underscore to avoid shadowing the builtin
    ``ConnectionRefusedError`` while keeping the intent obvious.
    """


class ConnectionFailedError(NetworkError):
    """A transient, injected or simulated connection failure."""


class SimulationError(WebDisError):
    """The discrete-event simulator was used inconsistently."""


class ProtocolError(WebDisError):
    """A WEBDIS protocol invariant was violated (CHT/log-table misuse)."""


class QueryLifecycleError(WebDisError):
    """A client-side query object was used outside its legal lifecycle."""
