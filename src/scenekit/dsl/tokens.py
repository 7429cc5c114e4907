"""Tokenizer for scenario scripts.

The surface syntax is line oriented.  Commas are pure separators and never
reach the parser; `#` starts a comment running to end of line.  Words cover
both keywords and identifiers (the parser tells them apart by position), and
kebab-case names such as `t-bone` are single words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from scenekit.dsl.diagnostics import Diagnostic, Severity, Span

class TokenKind(enum.Enum):
    WORD = "word"
    NUMBER = "number"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    EQUALS = "="
    COLON = ":"


_SINGLE = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "=": TokenKind.EQUALS,
    ":": TokenKind.COLON,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span
    value: float | None = None

    def __repr__(self) -> str:  # compact, for test failure output
        return f"Token({self.kind.name}, {self.text!r}, {self.span.line}:{self.span.col})"


def _is_ascii_digit(ch: str) -> bool:
    # str.isdigit() admits characters float() rejects (superscripts, Unicode
    # numerals), so number scanning sticks to ASCII.
    return "0" <= ch <= "9"


def _is_word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-"


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan a script into tokens.

    Returns the token list and any diagnostics.  Illegal characters produce an
    E_LEX error with a one-character span; scanning continues afterwards, so a
    single pass reports every lexical problem.  Empty input yields an empty
    token list and no diagnostics.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == ",":
            i += 1
            col += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, Span(line, col, line, col + 1)))
            i += 1
            col += 1
            continue
        if _is_ascii_digit(ch) or (ch == "-" and i + 1 < n and _is_ascii_digit(text[i + 1])):
            start_i, start_col = i, col
            i, col = _scan_number(text, i, col)
            lexeme = text[start_i:i]
            tokens.append(
                Token(
                    TokenKind.NUMBER,
                    lexeme,
                    Span(line, start_col, line, col),
                    value=float(lexeme),
                )
            )
            continue
        if _is_word_start(ch):
            start_i, start_col = i, col
            while i < n and _is_word_char(text[i]):
                i += 1
                col += 1
            tokens.append(
                Token(TokenKind.WORD, text[start_i:i], Span(line, start_col, line, col))
            )
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                Span(line, col, line, col + 1),
                "E_LEX",
                f"illegal character {ch!r}",
            )
        )
        i += 1
        col += 1

    return tokens, diags


def _scan_number(text: str, i: int, col: int) -> tuple[int, int]:
    """Advance past `-?digits[.digits][(e|E)[+-]digits]`, returning (i, col)."""
    n = len(text)
    if text[i] == "-":
        i += 1
        col += 1
    while i < n and _is_ascii_digit(text[i]):
        i += 1
        col += 1
    if i + 1 < n and text[i] == "." and _is_ascii_digit(text[i + 1]):
        i += 1
        col += 1
        while i < n and _is_ascii_digit(text[i]):
            i += 1
            col += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j < n and _is_ascii_digit(text[j]):
            while j < n and _is_ascii_digit(text[j]):
                j += 1
            col += j - i
            i = j
    return i, col
