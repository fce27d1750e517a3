"""Property-based tests (hypothesis): batch-boundary independence of the
combiner, determinism/robustness of the pure kernels, skew correctness.

FIXTURES.md/SURVEY.md §7.4 ask: "salted partial aggregation must produce
identical final counts to the unsalted oracle; property-test with
Zipf-distributed synthetic surfaces".
"""

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agenticknowledgegraphconstructionsystem_ray.functions.html_text import html_to_text
from agenticknowledgegraphconstructionsystem_ray.functions.textnorm import (
    CAP_STOPWORDS,
    norm_surface,
)
from agenticknowledgegraphconstructionsystem_ray.functions.triples import (
    NAME_MAX_CHARS,
    PREDICATE_PHRASES,
    extract_mentions_and_triples,
    scan_mentions_and_triples,
)
from agenticknowledgegraphconstructionsystem_ray.pipelines.kg import merge_mcounts
from agenticknowledgegraphconstructionsystem_ray.stages.triples import _mcount_table

# -- combiner: any batch split yields the same merged counts ---------------

_surfaces = st.sampled_from(
    ["nerf", "gaussian splatting", "plenoxels", "x", "head entity"]
)


@st.composite
def mention_rows(draw):
    n = draw(st.integers(1, 120))
    # Zipf-ish: head entity drawn with high probability
    rows = []
    for _ in range(n):
        s = draw(st.sampled_from(["head entity"] * 6 + ["nerf", "plenoxels", "x"]))
        rows.append(
            {
                "norm_surface": s,
                "n_in_page": draw(st.integers(1, 5)),
                "score": draw(st.sampled_from([0.4, 0.6, 0.8, 1.0])),
            }
        )
    return rows


@given(rows=mention_rows(), n_splits=st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_partial_counts_batchsplit_invariant(rows, n_splits):
    df = pd.DataFrame(rows)
    naive = df.groupby("norm_surface").agg(
        mentions=("n_in_page", "sum"),
        links=("norm_surface", "size"),
        perfect=("score", lambda s: int((s == 1.0).sum())),
        mx=("score", "max"),
        mn=("score", "min"),
    )

    # split into arbitrary batches, emit each batch's mcount partials (as
    # the extractor does), merge them as phase B's driver side does
    idx = np.linspace(0, len(df), n_splits + 1).astype(int)
    partials = []
    for i in range(n_splits):
        chunk = df.iloc[idx[i] : idx[i + 1]]
        if len(chunk):
            t = pa.Table.from_pandas(chunk, preserve_index=False)
            partials.append(_mcount_table(t.append_column(
                "chunk", pa.array([f"{i:05d}"] * t.num_rows))))
    merged = merge_mcounts(pa.concat_tables(partials)).to_pandas()
    merged = merged.set_index("norm_surface").rename(columns={
        "mention_count": "mentions", "link_count": "links",
        "perfect_links": "perfect", "max_score": "mx", "min_score": "mn"})
    assert merged.index.is_monotonic_increasing
    pd.testing.assert_frame_equal(
        naive.sort_index(), merged, check_dtype=False, check_names=False
    )


# -- pure kernels: never crash, always deterministic -----------------------

@given(st.binary(max_size=2000))
@settings(max_examples=120, deadline=None)
def test_html_to_text_total_and_deterministic(raw):
    a = html_to_text(raw)
    b = html_to_text(raw)
    assert isinstance(a, str) and a == b
    assert a == a.strip()


@given(st.text(max_size=400))
@settings(max_examples=120, deadline=None)
def test_extraction_total_and_deterministic(text):
    m1, t1 = extract_mentions_and_triples(text)
    m2, t2 = extract_mentions_and_triples(text)
    assert m1 == m2 and t1 == t2
    for m in m1:
        assert m.norm == norm_surface(m.surface)
        assert 0 <= m.start <= m.end <= len(text) + 1


# -- document scanner == per-token reference kernel ------------------------

_FRAGMENTS = (
    sorted(CAP_STOPWORDS)
    + [w.lower() for w in sorted(CAP_STOPWORDS)]
    + ["Theory", "Another", "Ifs", "Tom", "Ours", "Byte", "NeRF", "Gaussian",
       "Splatting", "3D", "2024", "x", "iPhone", "non-Gaussian", "d'Arc",
       "Foo_Bar", "AND"]
    + ["_", "-", "'", "é", "É", "²", "ß", "日本", "\xa0", "\x85", "\u2003",
       " ", "  ", "\t", "\r\n", "\n", "\n\n", ".", ". ", ".\xa0", "!", "! ",
       "?", "?\n", "...", "3.5", "e.g."]
    + [f" {p} " for p in PREDICATE_PHRASES]
    + [" improves  on ", " builds\xa0on ", " Uses ", " uses, "]
    + ["Q" * (NAME_MAX_CHARS + 5), "Long " * 60]
)
_page_text = st.lists(
    st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.text(alphabet="aZ09_-'é² .!?\n\xa0", max_size=6),
    ),
    max_size=40,
).map("".join)


@given(st.one_of(_page_text, st.text(max_size=300)))
@settings(max_examples=600, deadline=None)
# a stopword right after ', _ or a non-ASCII word character starts a token
# (the [\w\-'] stretch before it holds no ASCII letter or digit)
@example("'An Foo uses Bar.")
@example("²_The Bar")
@example("x'An Foo")
@example("é_The Foo builds on Bar. Baz")
@example("Foo 'The Bar")
def test_scanner_matches_reference_kernel(text):
    assert scan_mentions_and_triples(text) == extract_mentions_and_triples(text)


@given(st.text(max_size=200))
@settings(max_examples=120, deadline=None)
def test_norm_surface_idempotent(s):
    once = norm_surface(s)
    assert norm_surface(once) == once or once == ""


# -- media sniffers invert the builders for every valid dimension -----------

from agenticknowledgegraphconstructionsystem_ray.functions import hll, mediasniff as _ms


@settings(max_examples=40, deadline=None)
@given(
    w=st.integers(min_value=1, max_value=65535),
    h=st.integers(min_value=1, max_value=65535),
    body=st.binary(min_size=0, max_size=64),
)
def test_media_builders_sniffers_roundtrip(w, h, body):
    assert _ms.sniff(_ms.build_png(w, h, body)) == ("PNG", w, h, 33)
    assert _ms.sniff(_ms.build_gif(w, h, body)) == ("GIF", w, h, 13)
    assert _ms.sniff(_ms.build_bmp(w, h, body)) == ("BMP", w, h, 54)
    assert _ms.sniff(_ms.build_jpeg(w, h, body)) == ("JPEG", w, h, 15)


@settings(max_examples=20, deadline=None)
@given(rate=st.integers(min_value=1, max_value=384000),
       ch=st.integers(min_value=1, max_value=8),
       body=st.binary(min_size=0, max_size=64))
def test_wav_builder_sniffer_roundtrip(rate, ch, body):
    assert _ms.sniff(_ms.build_wav(rate, ch, body)) == ("WAV", rate, ch, 44)


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_sniff_never_raises_on_garbage(b):
    _ms.sniff(b)  # may return None, must not raise


# -- HLL: split-any-way + merge == one-shot; estimate within bounds ---------

@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_hll_partition_merge_equals_oneshot(n, cut):
    keys = [f"k{i}" for i in range(n)]
    k = int(n * cut)
    merged = hll.merge(hll.sketch_of(keys[:k]), hll.sketch_of(keys[k:]))
    assert np.array_equal(merged, hll.sketch_of(keys))
    est = hll.estimate(merged)
    assert abs(est - n) <= max(3, 0.05 * n)


# ---------------------------------------------------------------------------
# JPEG codec properties
# ---------------------------------------------------------------------------

from agenticknowledgegraphconstructionsystem_ray.functions import mediadecode as _md


@given(
    bh=st.integers(1, 4),
    bw=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_jpeg_block_constant_roundtrip_property(bh, bw, seed):
    """ANY block-constant mosaic round-trips exactly (DC-only blocks are
    lossless at quant=1) — the invariant the golden corpus relies on."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 256, (bh, bw), dtype=np.uint8)
    img = np.kron(vals, np.ones((8, 8), np.uint8))
    assert np.array_equal(_md.decode_jpeg_gray(_md.encode_jpeg_gray(img)), img)


@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_jpeg_general_roundtrip_bounded_error(h, w, seed):
    """ANY uint8 image decodes to the right shape with per-pixel error
    bounded by DCT-coefficient rounding at quant=1 (small constant)."""
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w), dtype=np.uint8)
    out = _md.decode_jpeg_gray(_md.encode_jpeg_gray(img))
    assert out.shape == (h, w)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 4


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_jpeg_decode_never_misdecodes_garbage(b):
    """Garbage either raises ValueError or is not accepted silently."""
    try:
        _md.decode_jpeg_gray(b"\xff\xd8" + b)
    except (ValueError, struct.error, IndexError):
        pass


# --- interval-union busy time (q98 sweep kernel) -------------------------

def _busy_sweep(ts: np.ndarray, window: int) -> int:
    """The q98 vectorized kernel, inlined for property checking."""
    ts = np.sort(ts.astype(np.int64))
    e = ts + window
    prevmax = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(e)[:-1]]
    )
    return int(np.maximum(e - np.maximum(ts, prevmax), 0).sum())


def _busy_reference(ts, window: int) -> int:
    """Brute-force merged-interval reference."""
    iv = sorted((int(t), int(t) + window) for t in ts)
    total = 0
    cur_s = cur_e = None
    for s, e in iv:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=5_000),
)
@settings(max_examples=200, deadline=None)
def test_busy_time_sweep_equals_merged_intervals(ts, window):
    arr = np.array(ts, dtype=np.int64)
    assert _busy_sweep(arr, window) == _busy_reference(ts, window)


# --- CUBE key expansion (q99) conserves every grouping set ---------------

@given(
    st.lists(
        st.tuples(
            st.sampled_from(["en", "de", "fr"]),
            st.sampled_from(["web", "wiki"]),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_cube_expansion_matches_pandas_groupbys(rows):
    df = pd.DataFrame(rows, columns=["lang", "source", "n"])
    # expansion-based cube (the q99 partial kernel, one dict pass)
    acc: dict = {}
    for lang, src, n in rows:
        for k in ((lang, src), (lang, "*"), ("*", src), ("*", "*")):
            a = acc.setdefault(k, [0, 0])
            a[0] += 1
            a[1] += n
    # reference: four explicit groupbys
    ref: dict = {}
    for keys, sub in (
        (["lang", "source"], None),
        (["lang"], "source"),
        (["source"], "lang"),
        ([], None),
    ):
        if keys:
            g = df.groupby(keys)["n"].agg(["count", "sum"])
            for idx, row in g.iterrows():
                kt = idx if isinstance(idx, tuple) else (idx,)
                if keys == ["lang", "source"]:
                    key = kt
                elif keys == ["lang"]:
                    key = (kt[0], "*")
                else:
                    key = ("*", kt[0])
                ref[key] = [int(row["count"]), int(row["sum"])]
        else:
            ref[("*", "*")] = [len(df), int(df["n"].sum())]
    assert acc == ref
