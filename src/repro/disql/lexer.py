"""DISQL tokenizer.

Produces a flat token stream with source offsets (the parser slices the raw
PRE text out of path specifications by offset and delegates to the PRE
parser).  Keywords are not distinguished here — they are case-insensitively
matched IDENT tokens, so ``Select``/``SELECT`` both work and aliases may
shadow nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import DisqlSyntaxError

__all__ = ["TokenKind", "Token", "tokenize_disql"]


class TokenKind(enum.Enum):
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    OP = "op"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    value: object
    start: int
    end: int
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.IDENT and self.text.lower() == word

    def __str__(self) -> str:
        return self.text if self.kind is not TokenKind.EOF else "<eof>"


#: Multi-character operators first so '<=' wins over '<'.
_OPERATORS = ("!=", "<=", ">=", ",", ".", "·", "*", "|", "(", ")", "=", "<", ">", "~")


def tokenize_disql(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`DisqlSyntaxError` on bad characters."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        column = pos - line_start + 1
        if ch == '"':
            literal, end = _read_string(text, pos, line, column)
            tokens.append(Token(TokenKind.STRING, text[pos:end], literal, pos, end, line, column))
            pos = end
            continue
        if ch.isdecimal():  # what int() reads; "²".isdigit() but int("²") raises
            end = pos
            while end < n and text[end].isdecimal():
                end += 1
            tokens.append(
                Token(TokenKind.NUMBER, text[pos:end], int(text[pos:end]), pos, end, line, column)
            )
            pos = end
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            tokens.append(Token(TokenKind.IDENT, word, word, pos, end, line, column))
            pos = end
            continue
        for op in _OPERATORS:
            if text.startswith(op, pos):
                end = pos + len(op)
                tokens.append(Token(TokenKind.OP, op, op, pos, end, line, column))
                pos = end
                break
        else:
            raise DisqlSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenKind.EOF, "", None, n, n, line, n - line_start + 1))
    return tokens


def _read_string(text: str, start: int, line: int, column: int) -> tuple[str, int]:
    """Read a double-quoted string with ``\\"`` and ``\\\\`` escapes."""
    out: list[str] = []
    pos = start + 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == '"':
            return "".join(out), pos + 1
        if ch == "\\" and pos + 1 < n and text[pos + 1] in ('"', "\\"):
            out.append(text[pos + 1])
            pos += 2
            continue
        if ch == "\n":
            break
        out.append(ch)
        pos += 1
    raise DisqlSyntaxError("unterminated string literal", line, column)
