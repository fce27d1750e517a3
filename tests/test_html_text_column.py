"""Differential tests: the columnar HTML -> text kernel against the sequential
reference.

``html_to_text_column`` (RE2 passes over a whole column, run by the phase-A
stage) must equal ``[html_to_text(h) for h in column]`` (Python's ``re``, run
by the oracles) row for row. The fragments below aim at the places where RE2
and Python's ``re`` differ: backreferences, Unicode word boundaries, the
``\\s`` and ``str.isspace`` sets, case folding, invalid UTF-8 and entities.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agenticknowledgegraphconstructionsystem_ray as pkg
from agenticknowledgegraphconstructionsystem_ray.functions import html_text
from agenticknowledgegraphconstructionsystem_ray.functions.html_text import (
    html_to_text,
    html_to_text_column,
)

_ISSPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]

# Each group is one branch of the piece strategy, so that the rare
# structures (overlapping drop elements, a Unicode character right after a
# block-tag name) come up often.
_DROP_TAGS = [
    # drop elements: unclosed, nested, mixed case, odd closing tags
    "<script>", "</script>", "<SCRIPT type=x>", "</ScRiPt >", "</script\x0b>",
    "</script\n>", "<scripts>", "<script", "<style>", "</style>", "<Style a>",
    "</STYLE\t>", "</style\x0b>", "<noscript>", "</noscript>", "<NoScript>",
    "</noscript\x0b>", "<head>", "</head>", "<HEAD lang=en>", "</head\x0c >",
    "</head\x0b>", "<header>", "</headx>",
    # comments
    "<!--", "-->", "<!-- x -->", "<!---->", "<!-",
]
_OTHER_TAGS = [
    # block tags, with Unicode letters, digits and marks after the name
    "<p>", "</P>", "<p x='1'>", "<div class=a>", "</DIV>", "<br/>", "<BR>",
    "<h1>", "<h7>", "<li>", "<LI>", "<l\u0131>", "<l\u0130>", "<pé>", "<p\u0301>",
    "<p\u3192>", "<p\u0663>", "<p\U00011f02>", "<p_>", "<p1>", "<p-x>",
    "<p\u3000>", "<p\x0b>", "<pre>", "<blockquote>", "<bloc\u212aquote>",
    "<\u017fection>", "<table>", "<td>", "<tr >", "<hr>", "<figcaption>",
    "<f\u0131gure>", "<p", "<", ">", "</",
    # inline tags
    "<b>", "</b>", "<a href='x'>", "</a>", "<span\n>",
]
_ENTITIES = [
    # named with and without ";", numeric out of range
    "&amp;", "&lt;", "&gt;", "&lt;p&gt;", "&amp", "&notit;", "&not", "&#10;",
    "&#x0a;", "&#0;", "&#x110000;", "&#xD800;", "&#99999999999;", "&nbsp;",
    "&nbsp", "&", "&#", "&#x;", "&NotAnEntity;", "&#128;", "&#x85;",
]
_WORDS = ["a", "Word", "x y", "é", "日本", "\n", "\n\n", "  "]
_FRAGMENTS = _DROP_TAGS + _OTHER_TAGS + _ENTITIES + _WORDS + _ISSPACE

_INVALID_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\x80",
                 b"\x80", b"\xf4\x90\x80\x80"]

_piece = st.one_of(
    *(st.sampled_from(group).map(str.encode)
      for group in (_DROP_TAGS, _OTHER_TAGS, _ENTITIES, _WORDS, _ISSPACE)),
    st.sampled_from(_INVALID_UTF8),
    st.text(max_size=4).map(str.encode),
    st.binary(max_size=4),
)

# Elements nest at random and close with any name, so drop elements
# overlap (``<style><script></style>x</script>``) and stay unclosed.
_NAMES = ["script", "style", "noscript", "head", "p", "div"]
_opener = st.tuples(
    st.sampled_from(_NAMES), st.sampled_from(["", " a=1", "x"]), st.booleans()
).map(lambda t: f"<{t[0].upper() if t[2] else t[0]}{t[1]}>".encode())
_closer = st.one_of(
    st.just(""),
    st.tuples(
        st.sampled_from(_NAMES), st.sampled_from(["", " ", "\x0b", "\n", "\t "]),
        st.booleans(),
    ).map(lambda t: f"</{t[0].title() if t[2] else t[0]}{t[1]}>"),
).map(str.encode)


def _element(children):
    return st.tuples(_opener, st.lists(children, max_size=4), _closer).map(
        lambda t: t[0] + b"".join(t[1]) + t[2])


_doc = st.lists(st.recursive(_piece, _element, max_leaves=12),
                max_size=12).map(b"".join)
_cell = st.one_of(st.none(), st.just(b""), _doc)


def _reference(cells: list) -> list[str]:
    return [html_to_text(c) for c in cells]


def _kernel(arr) -> list[str]:
    out = html_to_text_column(arr)
    assert isinstance(out, pa.Array) and out.type == pa.string()
    assert out.null_count == 0 and len(out) == len(arr)
    return out.to_pylist()


@given(st.lists(_cell, min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
@example([b"<style><script></style>x</script>y"])
@example([b"<script><style></script>x</style>y"])
@example([b"<p>a</p><script>b</script\x0b>c"])
@example(["<l\u0131>a</l\u0131>b".encode()])
@example(["<p\u3192>a".encode()])
@example(["a\u2028\n\x1c b \x85".encode()])
@example([b"<p>\xff</p><script>\xfe</script>", None, b""])
def test_column_equals_reference(cells):
    assert _kernel(pa.array(cells, pa.binary())) == _reference(cells)


@given(st.lists(st.lists(st.sampled_from(_FRAGMENTS)).map("".join),
                min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_string_input_equals_reference(texts):
    assert _kernel(pa.array(texts, pa.string())) == _reference(texts)


@given(st.lists(_cell, min_size=1, max_size=12), st.data())
@settings(max_examples=100, deadline=None)
def test_batch_split_invariance(cells, data):
    col = pa.array(cells, pa.binary())
    cuts = sorted(data.draw(st.lists(st.integers(0, len(cells)), max_size=4)))
    bounds = [0, *cuts, len(cells)]
    slices = [col.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    whole = html_to_text_column(col)
    assert pa.concat_arrays(
        [html_to_text_column(s) for s in slices]).equals(whole)
    assert html_to_text_column(pa.chunked_array(slices, pa.binary())).equals(
        whole)


def test_null_and_empty_rows():
    assert _kernel(pa.array([None, b"", b"<p>x</p>"], pa.binary())) == [
        "", "", "x"]
    assert _kernel(pa.array([], pa.binary())) == []
    assert _kernel(pa.array([None, None])) == ["", ""]


def test_ws_class_is_isspace_minus_newline():
    assert set(html_text.WS_CHARS) == set(_ISSPACE) - {"\n"}
    assert len(html_text.WS_CHARS) == len(set(html_text.WS_CHARS))


def test_word_class_is_pythons_word_set():
    spans = re.findall(r"\\x\{([0-9a-f]+)\}-\\x\{([0-9a-f]+)\}",
                       html_text.word_class())
    kernel = {c for a, b in spans for c in range(int(a, 16), int(b, 16) + 1)}
    python = {m.start() for m in re.finditer(
        r"\w", "".join(map(chr, range(0x110000))))}
    assert kernel == python


# -- guard: the reference stays independent of the stage -------------------

def _importers_of_reference() -> set[str]:
    root = pathlib.Path(pkg.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        if rel == "functions/html_text.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "html_to_text" for a in node.names)
            ) or (isinstance(node, ast.Attribute) and node.attr == "html_to_text")
            if named:
                found.add(rel)
    return found


def test_only_the_oracles_call_the_reference():
    assert _importers_of_reference() == {"oracle.py", "goldens.py"}
