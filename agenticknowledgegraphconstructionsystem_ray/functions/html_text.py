"""Deterministic HTML -> text extraction (the byte-identical per-url contract).

Plays the role of the reference's PDF text extractor
(``/root/reference/extract_and_populate.py:35-71``): a pure per-document
function whose output is the canonical ``text`` for a page. The reference's
contract is "per-unit extraction, concatenate, final strip, empty -> None";
ours is the HTML analog ("trafilatura-style" role, dependency-free
implementation):

1. decode bytes as UTF-8 (``errors="replace"``),
2. drop comments, ``<script>``/``<style>``/``<noscript>`` elements and the
   entire ``<head>``,
3. block-level tags become newline boundaries, ``<br>`` too,
4. all remaining tags are stripped,
5. HTML entities are unescaped,
6. within each line whitespace is collapsed to single spaces and the line is
   stripped; empty lines are dropped,
7. lines joined with ``"\n"``; final ``.strip()``; empty -> ``""``.

Two implementations of that contract live here:

- ``html_to_text``: the sequential reference, one page at a time with
  Python's ``re``. Only the oracles (``oracle.py``, ``goldens.py``) call it.
- ``html_to_text_column``: the Ray stage's kernel, a chain of
  ``pyarrow.compute`` RE2 passes over a whole ``html`` column. Where RE2 and
  Python's ``re`` differ (no backreferences, ASCII-only word boundaries, no
  vertical tab in its whitespace class, narrower case folding) its patterns
  spell out Python's sets. ``tests/test_html_text_column.py`` checks it
  against the reference, and the oracles compare the stage's output with
  the reference's, so a fault in either shows as a mismatch.

Both are pure and have no cross-row or cross-batch state, so the
distributed ``map_batches`` execution is byte-identical to the sequential
oracle (SURVEY.md §2.9.1, §7.4).
"""

from __future__ import annotations

import functools
import re
from html import unescape

import pyarrow as pa
import pyarrow.compute as pc

# Elements whose entire content is dropped. DOTALL regexes handle multi-line
# elements; unclosed script/style blocks simply don't match and degrade to
# tag-stripping (deterministically).
_DROP_ELEMENT_RE = re.compile(
    rb"<(script|style|noscript)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_HEAD_RE = re.compile(rb"<head\b[^>]*>.*?</head\s*>", re.IGNORECASE | re.DOTALL)
_COMMENT_RE = re.compile(rb"<!--.*?-->", re.DOTALL)

# Tags that terminate a text block (HTML block-level elements + <br>).
_BLOCK_TAG_RE = re.compile(
    r"</?(?:p|div|br|h[1-6]|li|ul|ol|dl|dt|dd|tr|td|th|table|thead|tbody|"
    r"section|article|aside|header|footer|nav|main|blockquote|pre|figure|"
    r"figcaption|hr|form|fieldset|address)\b[^>]*>",
    re.IGNORECASE,
)
_ANY_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile("[ \\t\\r\\f\\v\\u00a0]+")


def html_to_text(html: bytes | str | None) -> str:
    """Pure function: raw HTML bytes -> canonical extracted text.

    Deterministic, batch-independent; the sequential reference that the
    oracles call and that ``html_to_text_column`` is tested against.
    """
    if html is None:
        return ""
    if isinstance(html, str):
        raw = html.encode("utf-8", errors="replace")
    else:
        raw = bytes(html)
    if not raw:
        return ""

    raw = _COMMENT_RE.sub(b"", raw)
    raw = _DROP_ELEMENT_RE.sub(b"", raw)
    raw = _HEAD_RE.sub(b"", raw)

    text = raw.decode("utf-8", errors="replace")
    text = _BLOCK_TAG_RE.sub("\n", text)
    text = _ANY_TAG_RE.sub("", text)
    text = unescape(text)

    lines = []
    for line in text.split("\n"):
        line = _WS_RE.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines).strip()


# ---- the columnar kernel (RE2 via pyarrow.compute) -----------------------

# Python's bytes ``\s``; RE2's ``\s`` leaves out ``\v``.
_BYTES_SPACE = r"[ \t\n\r\f\v]"
# The byte passes run on the binary column, where RE2 matches in Latin-1
# mode, so ``.`` and ``[^>]`` take invalid UTF-8 bytes as Python's bytes
# regex does. RE2 has no backreference: the three drop elements are ONE
# alternation, because three passes would differ from the reference on
# overlaps such as ``<style><script></style>x</script>``.
_COMMENT_RX = r"(?s)<!--.*?-->"
_DROP_RX = "(?is)" + "|".join(
    rf"<{name}\b[^>]*>.*?</{name}{_BYTES_SPACE}*>"
    for name in ("script", "style", "noscript")
)
_HEAD_RX = rf"(?is)<head\b[^>]*>.*?</head{_BYTES_SPACE}*>"

# Block tag names. Python's IGNORECASE also folds "ı" and "İ" to "i";
# RE2's does not, so "i" is spelled as a class.
_BLOCK_NAMES = (
    "p|div|br|h[1-6]|li|ul|ol|dl|dt|dd|tr|td|th|table|thead|tbody|section|"
    "article|aside|header|footer|nav|main|blockquote|pre|figure|figcaption|"
    "hr|form|fieldset|address"
).replace("i", "[iı\u0130]")

# Python's ``str.isspace`` set minus "\n" (lines are split on "\n" only):
# what ``str.strip`` removes from the ends of a line.
WS_CHARS = (
    "\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_WS_CLASS = "".join(f"\\x{{{ord(c):x}}}" for c in WS_CHARS)
_LINE_STRIP_RX = rf"(?m)^[{_WS_CLASS}]+|[{_WS_CLASS}]+$"
# Runs of the reference's collapse set (after "\xa0" -> " ") that are not
# already a single space: rewriting only these leaves most text untouched.
_WS_RUN_RX = r"[\t\r\f\v]+[ \t\r\f\v]*| [ \t\r\f\v]+"

# No code point at or above this is a word character in Python's ``\w``
# (the last is U+3134A); tests check the class against the full range.
_WORD_SCAN_END = 0x40000


@functools.cache
def word_class() -> str:
    r"""Python's str ``\w`` (``str.isalnum()`` or "_") as an RE2 class body.

    RE2's ``\w`` and ``\b`` are ASCII-only, and its ``\pL\pN`` follow
    another Unicode version, so the block-tag pass spells out the set it
    needs after a tag name.
    """
    chars = "".join(map(chr, range(_WORD_SCAN_END)))
    return "".join(
        f"\\x{{{m.start():x}}}-\\x{{{m.end() - 1:x}}}"
        for m in re.finditer(r"\w+", chars)
    )


@functools.cache
def _block_tag_rx() -> str:
    # ``name\b[^>]*>``: the name ends in a word character, so ``\b`` means
    # the next character is ">" or any other non-word character
    return rf"(?i)</?(?:{_BLOCK_NAMES})(?:>|[^{word_class()}>][^>]*>)"


def html_to_text_column(arr: pa.Array | pa.ChunkedArray) -> pa.StringArray:
    """``html_to_text`` over a whole column: binary or string in (nulls
    allowed), one string per row out, equal to the reference row by row."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    raw = pc.fill_null(arr.cast(pa.binary()), b"")
    for rx in (_COMMENT_RX, _DROP_RX, _HEAD_RX):
        raw = pc.replace_substring_regex(raw, rx, b"")
    try:
        text = raw.cast(pa.string())
    except pa.ArrowInvalid:  # invalid UTF-8 outside the dropped elements
        text = pa.array(
            [b.decode("utf-8", errors="replace") for b in raw.to_pylist()],
            pa.string(),
        )
    text = pc.replace_substring_regex(text, _block_tag_rx(), "\n")
    text = pc.replace_substring_regex(text, "<[^>]*>", "")
    amp = pc.match_substring(text, "&")
    if pc.any(amp).as_py():
        fixed = [unescape(t) for t in text.filter(amp).to_pylist()]
        text = pc.replace_with_mask(text, amp, pa.array(fixed, pa.string()))
    text = pc.replace_substring(text, "\xa0", " ")
    text = pc.replace_substring_regex(text, _WS_RUN_RX, " ")
    text = pc.replace_substring_regex(text, _LINE_STRIP_RX, "")
    text = pc.replace_substring_regex(text, "\n\n+", "\n")
    return pc.utf8_trim(text, "\n")


def text_stats(text: str) -> tuple[int, int]:
    """(char_count, word_count) — reference's text stats
    (``extract_and_populate.py:74-87``: ``len(text)``, ``len(text.split())``)."""
    return len(text), len(text.split())
