"""Deterministic rule-based NER + SVO triple extraction (pure kernels).

Plays the role of the reference's LLM entity-extraction agent and
relationship-discovery agent
(``/root/reference/agents/src/agents/entity-extraction-agent.ts:30-79``,
``relationship-discovery-agent.ts:65-120``) with the closed predicate set
mirroring the reference's closed ``RelationshipType`` enum
(``agents/src/types.ts:73-79``). The LLM is replaced by a deterministic
pattern extractor ("spaCy/OpenIE-style" role per the north star) so that the
distributed pipeline can be verified exactly against a sequential oracle.

Two implementations of one extraction rule set, the same arrangement as
``validate_rules.py`` (pure) and ``stages/validate.py`` (vectorized):

- ``extract_mentions_and_triples`` is the sequential REFERENCE: sentence
  split, then a token list per sentence, then a loop over every token. Only
  the oracles use it (``oracle.py``, ``goldens.py``).
- ``scan_mentions_and_triples`` is the pipeline's kernel
  (``stages/triples.py``): a document-level scanner that runs one regex pass
  for sentence separators and one for candidate entity runs per page, and
  applies the remaining rules per candidate rather than per token. It
  returns the same ``Mention``/``RawTriple`` values with the same offsets;
  ``tests/test_properties.py`` checks the two against each other.

So the oracle checks of the pipeline compare two independent
implementations. All functions are pure per-document; the stateful part
(the broadcast alias dict) is held by the stage in ``stages/triples.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple

from .textnorm import (
    CAP_STOPWORDS,
    norm_surface,
    split_sentences,
    tokenize_with_spans,
)

# Closed predicate set. The 6 reference RelationshipTypes
# (types.ts:73-79: improves_on, extends, evaluates, builds_on, addresses,
# cites) plus three generic OpenIE verbs common in web text.
PREDICATE_PHRASES: dict[str, str] = {
    "improves on": "improves_on",
    "improves upon": "improves_on",
    "extends": "extends",
    "evaluates": "evaluates",
    "builds on": "builds_on",
    "builds upon": "builds_on",
    "addresses": "addresses",
    "cites": "cites",
    "uses": "uses",
    "introduces": "introduces",
    "outperforms": "outperforms",
}

MAX_PREDICATE_TOKENS = max(len(p.split()) for p in PREDICATE_PHRASES)

# Closed entity-type set — the reference's 7-value ConceptType enum
# (types.ts:64-71); out-of-enum types coerce to "concept"
# (entity-extraction-agent.ts:221-240).
CONCEPT_TYPES = (
    "method",
    "technique",
    "dataset",
    "metric",
    "concept",
    "architecture",
    "algorithm",
)

CONTEXT_MAX_CHARS = 500  # entity-extraction-agent.ts:214 (context -> <=500)
NAME_MAX_CHARS = 255  # entity-extraction-agent.ts:210 (name -> <=255)


class Mention(NamedTuple):
    surface: str
    norm: str
    start: int  # char offset within the document text
    end: int
    context: str  # containing sentence, truncated to CONTEXT_MAX_CHARS


class RawTriple(NamedTuple):
    subj: str  # surface form
    pred: str  # normalized predicate id
    obj: str  # surface form
    context: str
    subj_norm: str  # norm_surface(subj), the subject mention's norm
    obj_norm: str


def _mention_runs(
    tokens: list[tuple[str, int, int]],
) -> list[tuple[int, int]]:
    """Maximal runs [i, j) of entity tokens forming candidate mentions.
    Capitalized stopwords ("The", "In", ...) BREAK runs — they are never part
    of a mention (reference analog: generic-terms + validity predicate,
    entity-extraction-agent.ts:193-203).

    Single pass; the entity-token test is inlined (first char uppercase or
    digit — semantics of textnorm.is_entity_token).
    """
    runs: list[tuple[int, int]] = []
    stop = CAP_STOPWORDS
    in_run = False
    start = 0
    for i, (tok, _, _) in enumerate(tokens):
        c = tok[0]
        is_ent = (c.isupper() or c.isdigit()) and tok not in stop
        if is_ent:
            if not in_run:
                start = i
                in_run = True
        elif in_run:
            runs.append((start, i))
            in_run = False
    if in_run:
        runs.append((start, len(tokens)))
    return runs


def _trim_run(
    tokens: list[tuple[str, int, int]], lo: int, hi: int
) -> tuple[int, int] | None:
    """Reject bare-number runs ("2024")."""
    if hi - lo == 1 and tokens[lo][0].isdigit():
        return None
    return lo, hi


def extract_mentions_and_triples(
    text: str,
) -> tuple[list[Mention], list[RawTriple]]:
    """Pure per-document extraction: sentence split -> entity-token runs ->
    predicate match between adjacent mentions.

    The sequential reference (one token list per sentence, a loop over every
    token), used only by the oracles; the pipeline runs the equivalent
    ``scan_mentions_and_triples``.
    """
    mentions: list[Mention] = []
    triples: list[RawTriple] = []
    if not text:
        return mentions, triples

    offset = 0
    for sent in split_sentences(text):
        # find the sentence's offset in the doc for stable char spans
        pos = text.find(sent, offset)
        if pos < 0:
            pos = offset
        offset = pos + len(sent)
        context = sent.strip()[:CONTEXT_MAX_CHARS]

        tokens = tokenize_with_spans(sent)
        runs = [
            trimmed
            for lo, hi in _mention_runs(tokens)
            if (trimmed := _trim_run(tokens, lo, hi)) is not None
        ]

        sent_mentions: list[Mention] = []
        for lo, hi in runs:
            start = tokens[lo][1]
            end = tokens[hi - 1][2]
            surface = sent[start:end][:NAME_MAX_CHARS]
            sent_mentions.append(
                Mention(
                    surface=surface,
                    norm=norm_surface(surface),
                    start=pos + start,
                    end=pos + end,
                    context=context,
                )
            )
        mentions.extend(sent_mentions)

        # SVO: adjacent mention pairs whose gap text is exactly a predicate
        for k in range(len(runs) - 1):
            lo1, hi1 = runs[k]
            lo2, hi2 = runs[k + 1]
            gap_tokens = [t[0].lower() for t in tokens[hi1:lo2]]
            if not gap_tokens or len(gap_tokens) > MAX_PREDICATE_TOKENS:
                continue
            phrase = " ".join(gap_tokens)
            pred = PREDICATE_PHRASES.get(phrase)
            if pred is None:
                continue
            triples.append(
                RawTriple(
                    subj=sent_mentions[k].surface,
                    pred=pred,
                    obj=sent_mentions[k + 1].surface,
                    context=context,
                    subj_norm=sent_mentions[k].norm,
                    obj_norm=sent_mentions[k + 1].norm,
                )
            )
    return mentions, triples


# ---------------------------------------------------------------------------
# Document-level scanner (the pipeline's kernel).
#
# A token is ``[A-Za-z0-9][\w\-']*`` found left to right, so tokens are the
# maximal ``[\w\-']`` stretches that hold an ASCII letter or digit, each cut
# at its first such character. Sentence separators (``split_sentences``) are
# whitespace: every newline, and the whitespace run after ``.``/``!``/``?``.
# ---------------------------------------------------------------------------

_W = r"[\w\-']"  # token body character

# Sentence separators with no lookbehind: a newline (plus the whitespace
# after it), or ``.!?`` plus the whitespace after it. The pattern is a
# branch of literals, so the regex engine scans for its first characters.
# A match's first character closes the sentence before it: the ``.!?``
# belongs to that sentence, and a newline is whitespace its strip drops.
_SEP_RE = re.compile(r"\n\s*|\.\s+|!\s+|\?\s+")


def _stopword_guard() -> str:
    """Negative lookahead placed after a token's first character: the token
    is not one of CAP_STOPWORDS. The first character is checked with a
    one-character lookbehind so the run pattern stays charset-led."""
    rests: dict[str, list[str]] = {}
    for w in sorted(CAP_STOPWORDS):
        rests.setdefault(w[0], []).append(re.escape(w[1:]))
    alts = "|".join(
        f"(?<={c})(?:{'|'.join(sorted(r, key=len, reverse=True))})"
        for c, r in sorted(rests.items())
    )
    return f"(?!(?:{alts})(?!{_W}))"


# An entity token: first character uppercase ASCII or a digit, not a
# stopword. A candidate run is entity tokens joined by gaps with no ASCII
# letter or digit (so no token in between) that never cross a separator:
# no newline, and no ``.!?`` followed by whitespace. Every token after the
# first follows a gap that begins with a non-token character, so it starts
# a token. The first token is checked for that by the pattern only against
# the one character before it (not an ASCII letter or digit); a longer
# ``[\w\-']`` stretch before it ("non-Gaussian", "x_Bar") is left to
# ``_is_token_start``. A bare number (one token, all digits) is dropped by
# ``_entity_runs``.
_NOT_STOPWORD = _stopword_guard()
_ENT_TOKEN = f"[A-Z0-9]{_NOT_STOPWORD}{_W}*+"
_RUN_GAP = r"[^A-Za-z0-9\n.!?]*+(?:[.!?](?!\s)[^A-Za-z0-9\n.!?]*+)*+"
_NEXT_TOKEN = f"{_RUN_GAP}{_ENT_TOKEN}"
_RUN_RE = re.compile(
    f"([A-Z0-9](?<![A-Za-z0-9]{{2}}){_NOT_STOPWORD}{_W}*+)(?:{_NEXT_TOKEN})*+"
)
_TOKEN_END_RE = re.compile(f"{_W}*+")
_ALNUM_RE = re.compile(r"[A-Za-z0-9]")

# The text between two runs of one sentence is a predicate gap when it holds
# 1..MAX_PREDICATE_TOKENS tokens; the groups are the tokens.
_GAP_TOKEN = f"([A-Za-z0-9]{_W}*+)[^A-Za-z0-9]*+"
_pred_gap = _GAP_TOKEN
for _ in range(MAX_PREDICATE_TOKENS - 1):
    _pred_gap = f"{_GAP_TOKEN}(?:{_pred_gap})?"
_PRED_GAP_RE = re.compile(f"[^A-Za-z0-9]*+{_pred_gap}")
del _pred_gap


def _is_token_start(text: str, i: int) -> bool:
    """``text[i]`` (an ASCII letter or digit) starts a token iff the
    ``[\\w\\-']`` stretch right before it holds no ASCII letter or digit."""
    while i > 0:
        c = text[i - 1]
        if c.isascii():
            if c.isalnum():
                return False
            if c not in "_-'":
                return True
        elif not c.isalnum():
            return True
        i -= 1
    return True


def _entity_runs(text: str) -> list[tuple[int, int]]:
    """[(start, end)] of the mention runs of ``text``, in document order,
    bare-number runs dropped."""
    runs: list[tuple[int, int]] = []
    for m in _RUN_RE.finditer(text):
        s, e = m.span()
        first_end = m.end(1)
        if s and text[s - 1] != " " and not _is_token_start(text, s):
            # the first "token" is the tail of a token led by a lowercase
            # letter: the run starts at the next token, if the candidate
            # has one
            nxt = _ALNUM_RE.search(text, first_end, e)
            if nxt is None:
                continue
            s = nxt.start()
            first_end = _TOKEN_END_RE.match(text, s).end()
        if first_end == e and text[s].isdigit() and text[s:e].isdigit():
            continue  # bare number ("2024", "3²")
        runs.append((s, e))
    return runs


def scan_mentions_and_triples(
    text: str,
) -> tuple[list[Mention], list[RawTriple]]:
    """Document-level equivalent of ``extract_mentions_and_triples``: the
    same mentions and triples, in the same order, with the same offsets.

    One separator pass and one candidate-run pass over the page. The rules
    the reference applies per token are applied per candidate here (token
    start, bare numbers; stopwords inside the run pattern), the containing
    sentence is found by bisecting the separator offsets, and the predicate
    gap is matched only between consecutive runs of one sentence.
    """
    mentions: list[Mention] = []
    triples: list[RawTriple] = []
    if not text:
        return mentions, triples
    runs = _entity_runs(text)
    if not runs:
        return mentions, triples

    # sentence k lies between separator k-1 and separator k; a run at s is
    # in sentence bisect_left(seps, (s,)) (the separators starting before s)
    seps = [m.span() for m in _SEP_RE.finditer(text)]
    n_seps = len(seps)
    contexts: dict[int, str] = {}
    norms: dict[str, str] = {}
    gap = _PRED_GAP_RE.fullmatch
    prev_k = -1
    prev: Mention | None = None
    for s, e in runs:
        k = bisect_left(seps, (s,))
        context = contexts.get(k)
        if context is None:
            lo = seps[k - 1][1] if k else 0
            hi = seps[k][0] + 1 if k < n_seps else len(text)
            context = contexts[k] = text[lo:hi].strip()[:CONTEXT_MAX_CHARS]
        surface = text[s:min(e, s + NAME_MAX_CHARS)]
        norm = norms.get(surface)
        if norm is None:
            norm = norms[surface] = norm_surface(surface)
        cur = Mention(surface, norm, s, e, context)
        mentions.append(cur)
        if k == prev_k and (g := gap(text, prev.end, s)) is not None:
            pred = PREDICATE_PHRASES.get(" ".join(filter(None, g.groups())).lower())
            if pred is not None:
                triples.append(
                    RawTriple(prev.surface, pred, surface, context, prev.norm, norm)
                )
        prev_k, prev = k, cur
    return mentions, triples


def mention_relevance(count_in_doc: int) -> float:
    """Deterministic per-(doc, entity) relevance score in [0, 1]: more local
    mentions -> higher relevance, clamped like the reference cleaner
    (entity-extraction-agent.ts:213 ``Math.max(0, Math.min(1, score))``)."""
    return min(1.0, 0.2 + 0.2 * count_in_doc)
