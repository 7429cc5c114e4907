import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.dsl import Token, TokenKind, tokenize
from scenekit.dsl.diagnostics import Severity


def kinds(text):
    tokens, diags = tokenize(text)
    assert not diags
    return [t.kind for t in tokens]


def test_object_line_token_count():
    tokens, diags = tokenize("ego = new Car at (0.0, 0.0)")
    assert not diags
    assert len(tokens) == 9
    assert tokens[-1].kind is TokenKind.RPAREN
    assert tokens[-1].text == ")"
    assert [t.text for t in tokens] == ["ego", "=", "new", "Car", "at", "(", "0.0", "0.0", ")"]


def test_empty_input_empty_stream():
    tokens, diags = tokenize("")
    assert tokens == []
    assert diags == []


def test_whitespace_and_comments_only():
    tokens, diags = tokenize("   \n# just a comment\n\t\n")
    assert tokens == []
    assert diags == []


def test_illegal_character_reports_span():
    tokens, diags = tokenize("ego = new Car @ (0, 0)")
    assert len(diags) == 1
    d = diags[0]
    assert d.severity is Severity.ERROR
    assert d.code == "E_LEX"
    assert (d.span.line, d.span.col) == (1, 15)
    assert d.span.end_col == 16
    # scanning continues after the bad character
    assert [t.text for t in tokens] == ["ego", "=", "new", "Car", "(", "0", "0", ")"]


def test_multiple_illegal_characters_all_reported():
    _, diags = tokenize('a = "x" @ 1\nb @ 2')
    codes = [d.code for d in diags]
    assert codes.count("E_LEX") == len(codes) == 4  # two quotes, two @
    assert {d.span.line for d in diags} == {1, 2}


def test_unicode_digits_are_not_numbers():
    # str.isdigit() is true for these but float() rejects them; they must
    # come out as lex errors (or word characters), never crash the scanner.
    for text in ("x = ³", "x = -³", "x = ٣", "speed ², more"):
        tokens, diags = tokenize(text)
        assert all(t.value is None or isinstance(t.value, float) for t in tokens)
        assert any(d.code == "E_LEX" for d in diags)


def test_commas_are_separators_not_tokens():
    tokens, _ = tokenize("Choice[1, 2, 3]")
    assert [t.text for t in tokens] == ["Choice", "[", "1", "2", "3", "]"]


def test_kebab_names_are_single_words():
    tokens, _ = tokenize("require collision of t-bone")
    assert tokens[-1].text == "t-bone"
    assert tokens[-1].kind is TokenKind.WORD


def test_numbers():
    tokens, diags = tokenize("1 -2 3.5 -4.25 1e3 2.5e-2 10E+1")
    assert not diags
    assert all(t.kind is TokenKind.NUMBER for t in tokens)
    assert [t.value for t in tokens] == [1.0, -2.0, 3.5, -4.25, 1000.0, 0.025, 100.0]


def test_negative_number_vs_kebab_word():
    tokens, _ = tokenize("rear-end -5")
    assert tokens[0].kind is TokenKind.WORD and tokens[0].text == "rear-end"
    assert tokens[1].kind is TokenKind.NUMBER and tokens[1].value == -5.0


def test_line_and_column_tracking():
    tokens, _ = tokenize("a = 1\n  b = 2")
    a, _, _, b, _, _ = tokens
    assert (a.span.line, a.span.col) == (1, 1)
    assert (b.span.line, b.span.col) == (2, 3)
    assert b.span.end_col == 4


def test_spans_stay_within_source_bounds():
    # property: every token/diagnostic span indexes real source positions
    rng = random.Random(2024)
    alphabet = "abcXY_09 ()[]=:,.-#\n\t@"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        lines = text.split("\n")
        tokens, diags = tokenize(text)
        for span in [t.span for t in tokens] + [d.span for d in diags]:
            assert 1 <= span.line <= len(lines)
            assert 1 <= span.col <= len(lines[span.line - 1]) + 1
            assert span.end_line == span.line
            assert span.col < span.end_col <= len(lines[span.end_line - 1]) + 2


def test_token_text_matches_source_slice():
    text = "param gap = Range(25.0, 40.0)  # tail"
    tokens, _ = tokenize(text)
    for tok in tokens:
        assert text[tok.span.col - 1 : tok.span.end_col - 1] == tok.text


# --- Unicode word starts and a property over arbitrary text ----------------------


@pytest.mark.parametrize("ch", ["²", "½", "Ⅻ", "٣", "𝟘"])
def test_unicode_numeral_cannot_start_a_word(ch):
    # str.isalnum() but not str.isalpha(): a word character, never a word start
    tokens, diags = tokenize(f"{ch}ab a{ch}")
    assert [(d.code, d.span.col, d.span.end_col) for d in diags] == [("E_LEX", 1, 2)]
    assert [(t.kind, t.text) for t in tokens] == [(TokenKind.WORD, "ab"), (TokenKind.WORD, f"a{ch}")]


@pytest.mark.parametrize("ch", ["é", "ǅ"])
def test_unicode_letter_starts_a_word(ch):
    tokens, diags = tokenize(f"{ch}-x")
    assert not diags
    assert [(t.kind, t.text) for t in tokens] == [(TokenKind.WORD, f"{ch}-x")]


SYNTAX = st.sampled_from(list("aZ_09-.eE+ ()[]=:,#\n\t\r@"))
TEXT = st.text(SYNTAX | st.characters(), max_size=40)


def _offset(text, line, col):
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1


@settings(max_examples=400, deadline=None)
@given(text=TEXT)
def test_tokens_slice_the_source_in_order(text):
    tokens, diags = tokenize(text)
    for tok in tokens:
        assert tok.span.line == tok.span.end_line
        start, end = _offset(text, tok.span.line, tok.span.col), _offset(text, tok.span.line, tok.span.end_col)
        assert text[start:end] == tok.text
        assert tok.value == (float(tok.text) if tok.kind is TokenKind.NUMBER else None)
    for diag in diags:
        start = _offset(text, diag.span.line, diag.span.col)
        assert diag.message == f"illegal character {text[start]!r}"
    spans = sorted(
        (_offset(text, s.line, s.col), _offset(text, s.end_line, s.end_col))
        for s in [t.span for t in tokens] + [d.span for d in diags]
    )
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    for items in (tokens, diags):
        starts = [_offset(text, x.span.line, x.span.col) for x in items]
        assert starts == sorted(set(starts))


@settings(max_examples=400, deadline=None)
@given(ch=st.characters())
def test_word_start_and_word_char_classes(ch):
    tokens, _ = tokenize(f"{ch}a")
    starts = [(t.kind, t.text) for t in tokens] == [(TokenKind.WORD, f"{ch}a")]
    assert starts == (ch.isalpha() or ch == "_")
    tokens, _ = tokenize(f"a{ch}")
    assert (tokens[0].text == f"a{ch}") == (ch.isalnum() or ch in "_-")
