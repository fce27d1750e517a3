"""Validation stage — stateless ``map_batches`` port of the reference's
Agent #3 (SURVEY.md T4: "stateless rules, no configuration needed",
``validation-agent.ts:25-29``).

Two implementations of the relationship rules:
- the pure per-row functions in ``functions/validate_rules.py`` (bit-for-bit
  reference parity, unit-tested, used by the oracle);
- the VECTORIZED mask path here (pyarrow.compute kernels, no Python loop in
  the hot stage). ``tests/test_validate_vectorized.py`` asserts the two
  paths agree row-for-row, so the fast path inherits the parity guarantee.

Pipeline issue rows carry static per-rule messages (the rule id is the
payload); the reference's value-interpolated message strings are available
via the pure path when needed.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.html_text import WS_CHARS
from ..functions.validate_rules import (
    GENERIC_TERMS,
    PLACEHOLDER_EXPLANATION,
    TYPE_KEYWORDS,
    validate_entity,
)
from ..schema import VALIDATION_ISSUES

# rule -> (severity, static message)
EDGE_RULES: dict[str, tuple[str, str]] = {
    "self_reference": ("error", "Entity cannot have a relationship with itself"),
    "invalid_confidence": ("error", "Confidence is outside valid range [0, 1]"),
    "low_confidence": ("warning", "Low confidence score - recommend human review"),
    "very_low_confidence": ("warning", "Very low confidence - relationship may be spurious"),
    "type_explanation_mismatch": ("warning", "Relationship type keywords absent from explanation"),
    "null_type_high_confidence": ("warning", "Relationship type is null but confidence is high"),
    "null_type_low_confidence": ("info", "No meaningful relationship found (null type, low confidence)"),
    "explanation_too_short": ("warning", "Explanation is very short"),
    "explanation_missing": ("warning", "Explanation is missing or placeholder text"),
}


def _issues_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=VALIDATION_ISSUES)


# R3 keyword sets as one alternation per predicate: one scan finds any of
# them (substring semantics, same as ``k in explanation.lower()``)
_KEYWORD_PATTERNS = {
    p: "|".join(re.escape(k) for k in kws) for p, kws in TYPE_KEYWORDS.items()
}


def _keyword_mismatch(pred, ctx) -> pa.Array:
    """R3 (type_explanation_mismatch): the row's predicate has keywords and
    its lowercased context holds none of them. Each row is scanned only for
    its own predicate's keywords: per predicate, take its rows, scan those,
    and scatter the misses back."""
    mismatch = np.zeros(len(ctx), dtype=bool)
    if not len(mismatch):
        # pyarrow's indices_nonzero crashes on a chunked array of no chunks
        return pa.array(mismatch)
    for p, pattern in _KEYWORD_PATTERNS.items():
        rows = pc.indices_nonzero(pc.equal(pred, p))
        if not len(rows):
            continue
        lower = pc.utf8_lower(pc.take(ctx, rows))
        miss = pc.invert(pc.match_substring_regex(lower, pattern))
        mismatch[pc.filter(rows, miss).to_numpy()] = True
    return pa.array(mismatch)


def edge_rule_masks(batch: pa.Table) -> dict[str, pa.Array]:
    """Vectorized R1-R5 rule masks (validation-agent.ts:224-389 semantics)."""
    conf = pc.coalesce(batch["confidence"], pa.scalar(-1.0, pa.float64()))
    subj_id = batch["subj_id"]
    obj_id = batch["obj_id"]
    pred = batch["pred"]
    ctx = pc.coalesce(batch["context"], pa.scalar("", pa.string()))
    trimmed = pc.utf8_trim_whitespace(ctx)
    lower_trimmed = pc.utf8_lower(trimmed)
    false = pa.scalar(False)

    pred_null = pc.coalesce(
        pc.or_(pc.is_null(pred), pc.equal(pred, "")), pa.scalar(True)
    )
    in01 = pc.and_(pc.greater_equal(conf, 0.0), pc.less_equal(conf, 1.0))

    masks: dict[str, pa.Array] = {}
    masks["self_reference"] = pc.equal(subj_id, obj_id)
    masks["invalid_confidence"] = pc.invert(in01)
    masks["low_confidence"] = pc.and_(pc.greater_equal(conf, 0.0), pc.less(conf, 0.5))
    masks["very_low_confidence"] = pc.and_(pc.greater_equal(conf, 0.0), pc.less(conf, 0.3))
    masks["type_explanation_mismatch"] = _keyword_mismatch(pred, ctx)
    masks["null_type_high_confidence"] = pc.and_(pred_null, pc.greater(conf, 0.5))
    masks["null_type_low_confidence"] = pc.and_(pred_null, pc.less_equal(conf, 0.5))
    masks["explanation_too_short"] = pc.less(pc.utf8_length(trimmed), 20)
    masks["explanation_missing"] = pc.or_(
        pc.equal(trimmed, ""), pc.equal(lower_trimmed, PLACEHOLDER_EXPLANATION)
    )
    return {k: pc.coalesce(v, false) for k, v in masks.items()}


def validate_edges_batch(batch: pa.Table) -> pa.Table:
    """Appends ``validated`` / ``flag_for_review`` columns (reference writes
    validated=true back to the DB, ``database.ts:406-414``). Also restores
    warc_ts to us precision (Ray's sort/agg may narrow it)."""
    m = edge_rule_masks(batch)
    error_any = pc.or_(m["self_reference"], m["invalid_confidence"])
    warning_any = None
    for rule, (sev, _) in EDGE_RULES.items():
        if sev != "warning":
            continue
        warning_any = m[rule] if warning_any is None else pc.or_(warning_any, m[rule])
    conf = pc.coalesce(batch["confidence"], pa.scalar(-1.0, pa.float64()))
    flag = pc.or_(pc.less(conf, 0.5), warning_any)

    out = batch
    i = out.schema.get_field_index("warc_ts")
    if i >= 0 and out.schema.field(i).type != pa.timestamp("us"):
        out = out.set_column(
            i, "warc_ts", pc.cast(out.column("warc_ts"), pa.timestamp("us"))
        )
    out = out.append_column("validated", pc.invert(error_any))
    return out.append_column("flag_for_review", flag)


def edge_issues_batch(batch: pa.Table) -> pa.Table:
    """Issue rows for the validation report (S8 analog,
    ``run-validation.ts:186-228``) — one row per (edge, triggered rule)."""
    m = edge_rule_masks(batch)
    key = pc.binary_join_element_wise(
        pc.cast(batch["subj_id"], pa.string()),
        pc.coalesce(batch["pred"], pa.scalar("", pa.string())),
        pc.cast(batch["obj_id"], pa.string()),
        batch["url"],
        "|",
    )
    chunks = []
    for rule, (sev, msg) in EDGE_RULES.items():
        keys = pc.filter(key, m[rule])
        n = len(keys)
        if not n:
            continue
        chunks.append(
            pa.Table.from_arrays(
                [
                    pa.array(["relationship"] * n, pa.string()),
                    keys,
                    pa.array([sev] * n, pa.string()),
                    pa.array([rule] * n, pa.string()),
                    pa.array([msg] * n, pa.string()),
                ],
                schema=VALIDATION_ISSUES,
            )
        )
    if not chunks:
        return _issues_table([])
    return pa.concat_tables(chunks)


def issue_count_batch(t: pa.Table) -> pa.Table:
    """Block-level (severity, rule) counts — combiner for the report summary."""
    t = t.select(["severity", "rule"]).append_column(
        "one", pa.array([1] * t.num_rows, pa.int64())
    )
    g = t.group_by(["severity", "rule"]).aggregate([("one", "sum")])
    return pa.Table.from_arrays(
        [
            g.column("severity"),
            g.column("rule"),
            pc.cast(g.column("one_sum"), pa.int64()),
        ],
        names=["severity", "rule", "n"],
    )


# what ``str.strip`` removes: Python's ``str.isspace`` set, as an RE2 class
_STRIP_CLASS = "".join(f"\\x{{{ord(c):x}}}" for c in "\n" + WS_CHARS)
# Name-rule candidates, a superset of the names the rules can hit: a name
# whose ``lower().strip()`` is a generic term contains it under RE2's
# Unicode case folding (which folds the Kelvin sign to "k", as
# ``str.lower`` does); one whose stripped length is outside [2, 100] has
# a raw length outside it or a leading/trailing ``str.isspace`` char.
_GENERIC_RX = "(?i)" + "|".join(re.escape(t) for t in sorted(GENERIC_TERMS))
_PADDED_RX = rf"^[{_STRIP_CLASS}]|[{_STRIP_CLASS}]$"
_PERFECT_MSG = ("Relevance 1.0 but concept mentioned in only 1 document - "
                "may be overstated")


def _rows(mask) -> np.ndarray:
    """Row indices where ``mask`` is true (null counts as false)."""
    return np.flatnonzero(pc.fill_null(mask, False).to_numpy())


def validate_nodes_table(nodes: pa.Table) -> pa.Table:
    """Entity rules over the canonicalized nodes table: one issue row per
    (node, triggered rule), in node order, then rule order within a node.
    E3's per-link scan is replaced by the exact aggregates carried on nodes
    (max/min score, perfect-score link count) — same issues, no second pass
    over mentions.

    The numeric rules are Arrow masks. The name rules run
    ``validate_entity`` itself, keeping Python's ``str.strip``/
    ``str.lower`` semantics, on the candidate names Arrow selects only.
    Messages are formatted for the hits only. ``goldens.node_issue_rows``
    is the per-row reference."""
    name, mc = nodes["canonical_name"], nodes["mention_count"]
    lc = nodes["link_count"]
    length = pc.utf8_length(name)
    cand = pc.or_(
        pc.or_(pc.less(length, 2), pc.greater(length, 100)),
        pc.or_(pc.match_substring_regex(name, _PADDED_RX),
               pc.match_substring_regex(name, _GENERIC_RX)))
    # (node index, severity, rule, message) per hit, added in rule order:
    # validate_entity's name rules, E4, then E3 through the aggregates
    node, sev, rule, msg = [], [], [], []

    def hits(rows: np.ndarray, severity: str, rule_id: str,
             messages) -> None:
        node.append(rows)
        sev.extend([severity] * len(rows))
        rule.extend([rule_id] * len(rows))
        msg.extend(messages)

    for i in _rows(cand):
        for issue in validate_entity(name[int(i)].as_py(), 0, 0, []):
            hits(np.array([i]), issue["severity"], issue["rule"],
                 [issue["message"]])
    rows = _rows(pc.less(mc, lc))
    hits(rows, "warning", "mention_count_mismatch",
         [f"Mention count ({m}) < document links ({n})" for m, n in zip(
             mc.take(rows).to_pylist(), lc.take(rows).to_pylist())])
    for col in ("max_score", "min_score"):
        s = nodes[col]
        rows = _rows(pc.or_(pc.less(s, 0), pc.greater(s, 1)))
        hits(rows, "error", "invalid_relevance_score",
             [f"Relevance score {v} is outside valid range [0, 1]"
              for v in s.take(rows).to_pylist()])
    rows = _rows(pc.and_(pc.greater(nodes["perfect_links"], 0),
                         pc.equal(mc, 1)))
    hits(rows, "warning", "suspicious_perfect_score",
         [_PERFECT_MSG] * len(rows))

    # node order; a stable sort keeps the rule order within a node
    node_at = np.concatenate(node)
    order = np.argsort(node_at, kind="stable")
    n = len(order)
    return pa.Table.from_arrays(
        [pa.repeat("entity", n), name.take(node_at[order]),
         *(pa.array(v, pa.string()).take(order) for v in (sev, rule, msg))],
        schema=VALIDATION_ISSUES)


def summarize_issues(
    by_rule_sev: dict[tuple[str, str], int], n_entities: int, n_edges: int
) -> dict:
    """Validation summary reduce (A7, ``validation-agent.ts:398-439``) from
    pre-aggregated (severity, rule) counts."""
    by_sev: dict[str, int] = {"error": 0, "warning": 0, "info": 0}
    by_rule: dict[str, int] = {}
    for (sev, rule), n in by_rule_sev.items():
        by_sev[sev] = by_sev.get(sev, 0) + n
        by_rule[rule] = by_rule.get(rule, 0) + n
    return {
        "total_entities": n_entities,
        "total_relationships": n_edges,
        "issues_by_severity": by_sev,
        "issues_by_rule": dict(sorted(by_rule.items())),
        "total_issues": sum(by_rule.values()),
    }
