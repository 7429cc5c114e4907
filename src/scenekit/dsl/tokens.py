"""Tokenizer for scenario scripts.

The surface syntax is line oriented.  Commas are pure separators and never
reach the parser; `#` starts a comment running to end of line.  Words cover
both keywords and identifiers (the parser tells them apart by position), and
kebab-case names such as `t-bone` are single words.
"""

from __future__ import annotations

import enum
import re
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


_SINGLE = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}

# Blanks, commas and a comment are skipped as a prefix; then at most one
# lexical class.  `[0-9]` is ASCII only, so Unicode digits never reach
# float().  `[^\W\d]` also admits non-decimal numerals such as `²`, which
# `tokenize` rejects unless the word starts with a letter or `_`.
_TOKEN = re.compile(
    r"[ \t\r,]*(?:#[^\n]*)?"
    r"(?:(?P<newline>\n)"
    r"|(?P<number>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<word>[^\W\d][\w-]*)"
    r"|(?P<single>[()\[\]=:]))?"
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span
    value: float | None = None

    def __repr__(self) -> str:  # compact, for test failure output
        return f"Token({self.kind.name}, {self.text!r}, {self.span.line}:{self.span.col})"


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan a script into tokens.

    Returns the token list and any diagnostics.  Illegal characters produce an
    E_LEX error with a one-character span; scanning continues afterwards, so a
    single pass reports every lexical problem.  Empty input yields an empty
    token list and no diagnostics.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        group = m.lastgroup
        start, pos = m.span(group) if group else (m.end(), m.end())
        if group == "newline":
            line, line_start = line + 1, pos
            continue
        if group is None and pos == len(text):
            break
        lexeme = text[start:pos]
        span = Span(line, start - line_start + 1, line, pos - line_start + 1)
        if group == "number":
            tokens.append(Token(TokenKind.NUMBER, lexeme, span, float(lexeme)))
        elif group == "single":
            tokens.append(Token(_SINGLE[lexeme], lexeme, span))
        elif group == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(Token(TokenKind.WORD, lexeme, span))
        else:  # no class matches at `start`: one illegal character
            where = Span.point(line, start - line_start + 1)
            diags.append(Diagnostic(Severity.ERROR, where, "E_LEX", f"illegal character {text[start]!r}"))
            pos = start + 1
    return tokens, diags
