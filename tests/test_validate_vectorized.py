"""The vectorized edge-rule masks must agree row-for-row with the pure
reference-parity functions (functions/validate_rules.py)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.functions.validate_rules import (
    TYPE_KEYWORDS,
    is_valid,
    should_flag_for_review,
    validate_relationship,
)
from agenticknowledgegraphconstructionsystem_ray.stages.validate import (
    EDGE_RULES,
    edge_rule_masks,
    validate_edges_batch,
)


def _random_batch(n=500, seed=3):
    rng = np.random.default_rng(seed)
    preds = [
        "improves_on", "extends", "evaluates", "builds_on", "addresses",
        "cites", "uses", "introduces", "outperforms", None,
    ]
    contexts = [
        "This work improves the baseline substantially and runs faster.",
        "short",
        "",
        "Not explicitly stated in abstract",
        "We extend and generalize the approach with additional modules.",
        "completely unrelated words that mention nothing of note here",
    ]
    subj = rng.integers(0, 50, n)
    obj = rng.integers(0, 50, n)
    conf = rng.choice([-0.5, 0.0, 0.25, 0.45, 0.5, 0.7, 1.0, 1.3], n)
    return pa.table(
        {
            "subj_id": pa.array(subj, pa.int64()),
            "obj_id": pa.array(obj, pa.int64()),
            "pred": pa.array([preds[i % len(preds)] for i in range(n)], pa.string()),
            "confidence": pa.array(conf, pa.float64()),
            "context": pa.array([contexts[i % len(contexts)] for i in range(n)], pa.string()),
            "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        }
    )


def test_masks_match_pure_rules():
    batch = _random_batch()
    masks = {k: v.to_pylist() for k, v in edge_rule_masks(batch).items()}
    rows = batch.to_pylist()
    for i, r in enumerate(rows):
        issues = validate_relationship(
            r["subj_id"], r["obj_id"], r["pred"], r["confidence"], r["context"]
        )
        pure_rules = {x["rule"] for x in issues}
        vec_rules = {rule for rule in EDGE_RULES if masks[rule][i]}
        assert vec_rules == pure_rules, (i, r, vec_rules, pure_rules)


def test_validated_flag_match_pure():
    batch = _random_batch(seed=9)
    out = validate_edges_batch(batch).to_pylist()
    for r in out:
        issues = validate_relationship(
            r["subj_id"], r["obj_id"], r["pred"], r["confidence"], r["context"]
        )
        assert r["validated"] == is_valid(issues)
        assert r["flag_for_review"] == should_flag_for_review(r["confidence"], issues)


def _all_keyword_mismatch(batch: pa.Table) -> pa.Array:
    """The former R3 mask, kept as the reference: every keyword of every
    predicate scanned over the whole lowercased context column."""
    pred = batch["pred"]
    lower = pc.utf8_lower(pc.coalesce(batch["context"], pa.scalar("", pa.string())))
    false = pa.scalar(False)
    mismatch = pa.array([False] * batch.num_rows, pa.bool_())
    for p, kws in TYPE_KEYWORDS.items():
        eq = pc.coalesce(pc.equal(pred, p), false)
        any_kw = pa.array([False] * batch.num_rows, pa.bool_())
        for kw in kws:
            any_kw = pc.or_(any_kw, pc.match_substring(lower, kw))
        mismatch = pc.or_(mismatch, pc.and_(eq, pc.invert(any_kw)))
    return pc.coalesce(mismatch, false)


_PREDS = [*TYPE_KEYWORDS, None, "", "unknown_pred"]
_CONTEXT_WORDS = sorted({k for kws in TYPE_KEYWORDS.values() for k in kws}) + [
    "IMPROVES", "Based On", "basedon", "related  work", "Ünïcode", "x", " ", "",
]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(_PREDS),
            st.one_of(
                st.none(),
                st.lists(st.sampled_from(_CONTEXT_WORDS), max_size=4).map(" ".join),
            ),
        ),
        max_size=60,
    ),
    n_chunks=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_per_predicate_keyword_mask_matches_all_keyword_loop(rows, n_chunks):
    """Scanning each row only for its own predicate's keywords gives the
    mask of the all-keyword loop, for null/empty predicates and contexts
    and for multi-chunk columns."""
    n = len(rows)
    t = pa.table({
        "subj_id": pa.array(range(n), pa.int64()),
        "obj_id": pa.array(range(n), pa.int64()),
        "pred": pa.array([r[0] for r in rows], pa.string()),
        "confidence": pa.array([0.6] * n, pa.float64()),
        "context": pa.array([r[1] for r in rows], pa.string()),
    })
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    batch = pa.concat_tables(
        [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    )
    got = edge_rule_masks(batch)["type_explanation_mismatch"]
    assert got.to_pylist() == _all_keyword_mismatch(batch).to_pylist()
