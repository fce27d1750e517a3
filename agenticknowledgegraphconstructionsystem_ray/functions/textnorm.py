"""Surface-form normalization + tokenization (pure, deterministic).

Reference analogs: the entity cleaner / concept-type normalizer
(``/root/reference/agents/src/agents/entity-extraction-agent.ts:208-240``) and
the exact-name dedup key (``db_init.py:56`` UNIQUE(name)). The north-star
extends exact-name dedup to normalized-surface-form matching, so the
normalization here IS the canonicalization groupby key.
"""

from __future__ import annotations

import re

_WS_RE = re.compile(r"\s+")
_EDGE_PUNCT_RE = re.compile(r"^[^\w]+|[^\w]+$")

# Token with span; tokens start with a word char, may contain word chars,
# hyphens and apostrophes.
TOKEN_RE = re.compile(r"[A-Za-z0-9][\w\-']*")

# Sentence boundary: ., !, ? followed by whitespace. Newlines are also
# hard sentence boundaries (block boundaries from html_to_text).
_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")

# Capitalized words that start sentences but are never entity mentions on
# their own (reference analog: the generic-terms blocklist idea,
# validation-agent.ts:69-88, applied at recognition time).
CAP_STOPWORDS = frozenset(
    {
        "The", "A", "An", "In", "On", "At", "It", "We", "They", "This",
        "That", "These", "Those", "For", "From", "With", "Without", "By",
        "As", "And", "Or", "But", "If", "When", "While", "Here", "There",
        "Our", "Its", "His", "Her", "Their", "Not", "No", "Yes", "To", "Of",
    }
)


_URL_SCHEME_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.IGNORECASE)
_URL_WWW_RE = re.compile(r"^www\.", re.IGNORECASE)


def norm_url(url: str) -> str:
    """URL normalizer (reference analog M2: the arxiv-id normalizer that
    strips the '/abs/' prefix and vN suffixes, ``fetch_papers.py:91``):
    drop scheme and leading www., lowercase the host, strip trailing
    slash and fragment."""
    u = url.strip()
    u = _URL_SCHEME_RE.sub("", u)
    u = _URL_WWW_RE.sub("", u)
    u = u.split("#", 1)[0]
    if "/" in u:
        host, _, rest = u.partition("/")
        u = host.lower() + "/" + rest
    else:
        u = u.lower()
    return u.rstrip("/")


def norm_surface(surface: str) -> str:
    """Canonicalization key: trim edge punctuation, collapse whitespace,
    casefold. Pure; used identically by the pipeline and the oracle."""
    s = _WS_RE.sub(" ", surface).strip()
    s = _EDGE_PUNCT_RE.sub("", s)
    return s.casefold()


def split_sentences(text: str) -> list[str]:
    """Deterministic sentence segmentation over extracted text."""
    return [s for s in (_SENT_SPLIT_RE.split(text) if text else []) if s.strip()]


def tokenize_with_spans(sentence: str) -> list[tuple[str, int, int]]:
    """[(token, start, end)] within the sentence string (one tuple per
    token). Serves the sequential reference kernel
    ``triples.extract_mentions_and_triples`` only; the pipeline's document
    scanner never builds a token list."""
    return [(m[0], m.start(), m.end()) for m in TOKEN_RE.finditer(sentence)]


def is_entity_token(tok: str) -> bool:
    """A token that can be part of a named-entity mention: starts with an
    uppercase letter or a digit (e.g. "Gaussian", "NeRF", "3D")."""
    c = tok[0]
    return c.isupper() or c.isdigit()
