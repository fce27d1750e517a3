"""The vectorized edge-rule masks must agree row-for-row with the pure
reference-parity functions (functions/validate_rules.py), and the
columnar entity rules with the goldens' per-row reference."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.functions.validate_rules import (
    GENERIC_TERMS,
    TYPE_KEYWORDS,
    is_valid,
    should_flag_for_review,
    validate_relationship,
)
from agenticknowledgegraphconstructionsystem_ray.goldens import node_issue_rows
from agenticknowledgegraphconstructionsystem_ray.schema import VALIDATION_ISSUES
from agenticknowledgegraphconstructionsystem_ray.stages.validate import (
    EDGE_RULES,
    edge_rule_masks,
    validate_edges_batch,
    validate_nodes_table,
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


# -- entity rules: the columnar validate_nodes_table against the goldens'
# per-row reference --

_SPACE_CHARS = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_padding = st.text(alphabet=st.sampled_from(_SPACE_CHARS), max_size=3)


def _padded_term(pre: str, term: str, post: str, case: str,
                 kelvin: bool) -> str:
    """A generic term, cased, its k written as the Kelvin sign U+212A
    (whose ``str.lower`` is "k") when ``kelvin``, between space
    paddings."""
    term = {"upper": term.upper(), "title": term.title()}.get(case, term)
    if kelvin:
        term = term.replace("k", "\u212a").replace("K", "\u212a")
    return pre + term + post


_generic = st.builds(
    _padded_term, _padding, st.sampled_from(sorted(GENERIC_TERMS)), _padding,
    st.sampled_from(["lower", "upper", "title"]), st.booleans())
_short = st.text(
    alphabet=st.sampled_from(_SPACE_CHARS + ["a", "Z", "-", "İ",
                                             "K", "ß", "ẞ"]),
    max_size=4)
_long = st.builds(lambda pad, c, n: pad + c * n + pad, _padding,
                  st.sampled_from(["a", "İ", " x"]), st.integers(48, 103))
_score = st.sampled_from([0.0, 0.3, 1.0, -0.2, 1.5, float("nan"),
                          float("inf"), 1e20, None])


_NODE_COLUMNS = pa.schema([
    ("entity_id", pa.int64()), ("canonical_name", pa.string()),
    ("mention_count", pa.int64()), ("link_count", pa.int64()),
    ("perfect_links", pa.int64()), ("max_score", pa.float64()),
    ("min_score", pa.float64())])


@st.composite
def node_tables(draw):
    rows = draw(st.lists(st.fixed_dictionaries({
        "canonical_name": st.one_of(_generic, _short, _long,
                                    st.sampled_from(["NeRF", "Paper Towels"])),
        "mention_count": st.integers(0, 3),
        "link_count": st.integers(0, 3),
        "perfect_links": st.integers(0, 2),
        "max_score": _score,
        "min_score": _score,
    }), max_size=30))
    for i, r in enumerate(rows):
        r["entity_id"] = i
    return pa.Table.from_pylist(rows, schema=_NODE_COLUMNS)


@given(nodes=node_tables())
@settings(max_examples=400, deadline=None)
def test_node_issues_match_per_row_reference(nodes):
    want = pa.Table.from_pylist(node_issue_rows(nodes.to_pylist()),
                                schema=VALIDATION_ISSUES)
    assert validate_nodes_table(nodes).equals(want)


def test_node_issue_candidates_cover_every_space_and_case_fold():
    """Every ``str.isspace`` char as padding, the Kelvin sign inside a
    generic term, and the dotted capital I (whose lowercase is two chars),
    in one table."""
    names = [c + "Paper" for c in _SPACE_CHARS] + [
        "a" + c for c in _SPACE_CHARS] + [
        "Related WorK", "İntroduction", "Straße", "x", ""]
    n = len(names)
    nodes = pa.table({
        "entity_id": pa.array(range(n), pa.int64()),
        "canonical_name": names,
        "mention_count": pa.array([1] * n, pa.int64()),
        "link_count": pa.array([1] * n, pa.int64()),
        "perfect_links": pa.array([0] * n, pa.int64()),
        "max_score": [0.5] * n,
        "min_score": [0.5] * n,
    })
    got = validate_nodes_table(nodes)
    want = pa.Table.from_pylist(node_issue_rows(nodes.to_pylist()),
                                schema=VALIDATION_ISSUES)
    assert got.equals(want)
    rules = got["rule"].to_pylist()
    assert rules.count("no_generic_terms") == len(_SPACE_CHARS) + 1
    assert rules.count("name_too_short") == len(_SPACE_CHARS) + 2
