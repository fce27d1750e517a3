"""Seeded synthetic Common-Crawl-style ``pages`` corpus (FIXTURES.md §1).

Deterministic generator for the KG pipeline's input table
(``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``
per BASELINE.json input_hint). Self-contained, no external data.

Properties planted on purpose:
- **Zipfian entity distribution** with head entities, so the salted
  canonicalization shuffle is actually exercised (SURVEY.md §7.4).
- **Alias pairs with known ground truth** (long form <-> acronym <->
  hyphenated variant), so union-find merging has a golden answer
  (reference analog: exact-name dedup ``db_init.py:56`` + the docx's
  future-work entity disambiguation).
- **HTML edge cases**: empty body, script-only pages, unclosed tags, HTML
  entities, non-ASCII UTF-8, nested tags.
- **lang minority** ("de"/"fr"/"") to exercise the lang filter.

Generation is deterministic per (seed, shard): shard i always produces the
same rows regardless of how many workers generate shards, so resume tests and
the sequential oracle see identical input.
"""

from __future__ import annotations

import functools
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .schema import PAGES
from .functions.textnorm import norm_surface
from .functions.triples import CONCEPT_TYPES
from .state.artifacts import cache_root

_ADJ = [
    "Neural", "Gaussian", "Sparse", "Dynamic", "Hierarchical", "Adaptive",
    "Robust", "Efficient", "Latent", "Spectral", "Convolutional", "Recurrent",
    "Variational", "Bayesian", "Graph", "Temporal", "Spatial", "Hybrid",
    "Federated", "Quantized",
]
_NOUN = [
    "Radiance", "Splatting", "Diffusion", "Attention", "Embedding",
    "Rendering", "Transport", "Sampling", "Fusion", "Distillation", "Pruning",
    "Hashing", "Indexing", "Clustering", "Alignment", "Retrieval",
    "Synthesis", "Encoding", "Decoding", "Matching",
]
_TECH = [
    "Fields", "Networks", "Transformer", "Model", "Pipeline", "Framework",
    "Encoder", "Decoder", "Kernel", "Index", "Cache", "Engine", "Optimizer",
    "Sampler", "Renderer", "Tracker", "Mapper", "Planner", "Scheduler",
    "Compiler",
]

# Predicate surface phrases the extractor recognizes (functions/triples.py).
_PRED_SURFACES = [
    "improves on", "extends", "evaluates", "builds on", "addresses",
    "cites", "uses", "introduces", "outperforms",
]

_FILLERS = [
    "The system runs quickly and scales to very large corpora without any "
    "manual tuning of the underlying storage or compute configuration.",
    "We observed consistent results across repeated runs of the experiment "
    "even when the workers were restarted midway through processing.",
    "This page was archived for later analysis by the crawler and kept in "
    "the archive alongside millions of similar records from the same host.",
    "The café served a naïve blend of rôle-play and résumé writing to the "
    "visitors who stayed for the late seminar on distributed indexing.",
    "It performs well under heavy load &amp; strict latency budgets while "
    "the cache hit rate stays above the target threshold for the day.",
    "There is no obvious bottleneck in the current configuration although "
    "the disk spills grow slowly when the queue depth increases again.",
    "On average the throughput stayed flat over time and the variance "
    "between the fastest and slowest shard remained acceptably small.",
]

# Common-Crawl-style boilerplate (navigation, sidebar, footer) — constant
# across pages; real pages carry tens of KB of markup around the content, so
# the extractor workload per page matches the real per-document cost.
_NAV_HTML = (
    "<nav><ul>"
    + "".join(
        f'<li><a href="/section/{i}">section {i} overview and archive</a></li>'
        for i in range(40)
    )
    + "</ul></nav>"
)
_SIDEBAR_HTML = (
    "<aside><div class=\"widget\"><ul>"
    + "".join(
        f"<li>related record {i} from the same crawl segment</li>"
        for i in range(30)
    )
    + "</ul></div></aside>"
)
_FOOTER_HTML = (
    "<footer><div>"
    + " | ".join(f'<a href="/about/{i}">about page {i}</a>' for i in range(20))
    + "<p>all content archived under the usual terms. contact the operator "
    "for takedown requests. mirrors are updated nightly.</p></div></footer>"
)
_STYLE_HTML = (
    "<style>"
    + "".join(f".c{i} {{ margin: {i}px; padding: {i}px; }}" for i in range(60))
    + "</style>"
)
_SCRIPT_HTML = (
    "<script>var cfg = {"
    + ",".join(f'"k{i}": {i}' for i in range(80))
    + "}; function track(x) { return x * 2; }</script>"
)

N_ENTITIES = 500
_ZIPF_EXP = 1.1
_MIN_SENTS = 20
_MAX_SENTS = 60

# Cross-host "related" links (v3): targets are pure arithmetic in the page
# index — no rng draws — so the planted triple/entity streams are unchanged
# while the corpus gains a real web graph: 4 spread links (multiplicative
# stride over the 1000 hosts) + 4 hub links (every page cites hosts 0-3:
# planted head-host skew for the link-graph groupbys). Pages i%11==0 add an
# UNQUOTED href (attribute-syntax edge case); i%13==0 add fragment-only and
# javascript: targets (must be skipped by the extractor). The anchor texts
# are entity- and predicate-free filler so extraction semantics of the KG
# pipeline are untouched (goldens recompute regardless — GOLDEN_VERSION).
_LINK_PRIMES = (101, 211, 307, 409)
_N_SITES = 1000


def _related_html(i: int) -> str:
    # anchor text must stay lowercase with no digit-initial token runs:
    # the NER kernel treats capitalized/digit token runs as entity mentions
    # (functions/triples._mention_runs), and "related record 17 3" planted
    # ~4 spurious entities per page (196k nodes at sf0.1) before r17/k3
    # style tokens fixed it.
    links = [
        f'<a href="https://site-{(i * p + k) % _N_SITES}.example/page/'
        f'{(i * 13 + k) % 50000}">related record r{i} k{k}</a>'
        for k, p in enumerate(_LINK_PRIMES)
    ]
    links += [
        f'<a href="https://site-{k}.example/hub/{k}">hub list k{k}</a>'
        for k in range(4)
    ]
    if i % 11 == 0:
        links.append(f"<a href=/raw/{i}>raw archive</a>")
    if i % 13 == 0:
        links.append('<a href="#top">top</a>')
        links.append('<a href="javascript:void(0)">noop</a>')
    return "<section><h2>related</h2>" + " ".join(links) + "</section>"


def entity_universe(n: int = N_ENTITIES) -> list[dict]:
    """Deterministic entity table: canonical name, acronym alias, optional
    hyphenated alias, closed-enum type."""
    ents = []
    for i in range(n):
        a, rem = divmod(i, len(_NOUN) * len(_TECH))
        b, c = divmod(rem, len(_TECH))
        canonical = f"{_ADJ[a % len(_ADJ)]} {_NOUN[b]} {_TECH[c]}"
        acronym = "".join(w[0] for w in canonical.split()) + str(i)
        aliases = [canonical, acronym]
        if i % 5 == 0:
            aliases.append(canonical.replace(" ", "-"))
        ents.append(
            {
                "canonical_name": canonical,
                "aliases": aliases,
                "ent_type": CONCEPT_TYPES[i % len(CONCEPT_TYPES)],
            }
        )
    return ents


@functools.lru_cache(maxsize=None)
def _alias_items(n: int) -> tuple[tuple[str, tuple[str, str]], ...]:
    """The alias table as an immutable item tuple, built once per process."""
    out: dict[str, tuple[str, str]] = {}
    for e in entity_universe(n):
        for al in e["aliases"]:
            out[norm_surface(al)] = (e["canonical_name"], e["ent_type"])
    return tuple(out.items())


def alias_dict(n: int = N_ENTITIES) -> dict[str, tuple[str, str]]:
    """norm_alias -> (canonical_name, ent_type). The broadcast small side for
    entity linking (reference analog: cached seminal paper,
    run-relationship-discovery.ts:32-47).

    Every call returns a new dict (copied from the cached item tuple), so
    no two callers share one mutable object."""
    return dict(_alias_items(n))


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), _ZIPF_EXP)
    return w / w.sum()


def _page_html(i: int, rng: np.random.Generator, ents: list[dict], weights: np.ndarray) -> bytes:
    # deterministic edge cases
    if i % 97 == 0:
        return b"<html><head><title>empty</title></head><body></body></html>"
    if i % 89 == 0:
        return (
            b"<html><body><script>var x = document.title;\nconsole.log(x);"
            b"</script></body></html>"
        )

    n_sent = int(_MIN_SENTS + rng.integers(0, _MAX_SENTS - _MIN_SENTS + 1))
    is_triple = rng.random(n_sent) < 0.6
    n_triples = int(is_triple.sum())
    ent_idx = rng.choice(len(ents), size=2 * max(1, n_triples), p=weights)
    pred_idx = rng.integers(0, len(_PRED_SURFACES), size=max(1, n_triples))
    filler_idx = rng.integers(0, len(_FILLERS), size=n_sent)
    alias_pick = rng.random(2 * max(1, n_triples))

    sents: list[str] = []
    t = 0
    for k in range(n_sent):
        if is_triple[k]:
            se, oe = ents[int(ent_idx[2 * t])], ents[int(ent_idx[2 * t + 1])]
            subj = se["aliases"][int(alias_pick[2 * t] * len(se["aliases"]))]
            obj = oe["aliases"][int(alias_pick[2 * t + 1] * len(oe["aliases"]))]
            sents.append(f"{subj} {_PRED_SURFACES[int(pred_idx[t])]} {obj}.")
            t += 1
        else:
            sents.append(_FILLERS[int(filler_idx[k])])

    # content split across several paragraphs, like a real article
    paras = []
    per = max(3, len(sents) // 5)
    for j in range(0, len(sents), per):
        paras.append("<p>" + " ".join(sents[j : j + per]) + "</p>")
    items = "".join(f"<li>{s}</li>" for s in sents[:3])
    unclosed = "<p>archive note with <b>unclosed markup" if i % 83 == 0 else ""
    html = (
        f"<html><head><title>Crawl record {i}</title>{_STYLE_HTML}</head>"
        f"<body>{_NAV_HTML}<h1>crawl record {i}</h1>{_SCRIPT_HTML}"
        f"<main>{''.join(paras)}</main>{_SIDEBAR_HTML}"
        f"<ul>{items}</ul>{unclosed}{_related_html(i)}{_FOOTER_HTML}"
        f"<!-- comment {i} --></body></html>"
    )
    return html.encode("utf-8")


def generate_shard(
    shard: int, lo: int, hi: int, seed: int = 42
) -> pa.Table:
    """Rows [lo, hi) of the corpus — pure function of (seed, shard, lo, hi)."""
    rng = np.random.default_rng(seed * 1_000_003 + shard)
    ents = entity_universe()
    weights = _zipf_weights(len(ents))

    urls, tss, htmls, langs = [], [], [], []
    for i in range(lo, hi):
        urls.append(f"https://site-{i % 1000}.example/page/{i}")
        tss.append(1_600_000_000_000_000 + i * 1_000_000)  # us epoch
        htmls.append(_page_html(i, rng, ents, weights))
        r = rng.random()
        langs.append("en" if r < 0.85 else "de" if r < 0.90 else "fr" if r < 0.95 else "")
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array([None] * len(urls), pa.string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES,
    )


def shard_bounds(n_rows: int, n_files: int) -> list[tuple[int, int, int]]:
    """[(shard, lo, hi)] — deterministic partitioning of the corpus."""
    per = (n_rows + n_files - 1) // n_files
    return [
        (s, s * per, min(n_rows, (s + 1) * per))
        for s in range(n_files)
        if s * per < n_rows
    ]


def write_pages(
    out_dir: str, n_rows: int, n_files: int = 8, seed: int = 42, use_ray: bool = True
) -> list[str]:
    """Write the corpus as ``pages-{shard:05d}.parquet`` files (deterministic
    names -> partition-level resume, FIXTURES.md §7). Returns file paths.

    Idempotent: if the directory already holds a matching ``_SYNTH_OK``
    marker, generation is skipped.
    """
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_SYNTH_OK")
    tag = f"v4:{n_rows}:{n_files}:{seed}"  # v4: lowercase link anchor text
    bounds = shard_bounds(n_rows, n_files)
    paths = [os.path.join(out_dir, f"pages-{s:05d}.parquet") for s, _, _ in bounds]
    if os.path.exists(marker) and open(marker).read() == tag:
        return paths

    # regenerating under a different plan: remove stale shards first, or
    # glob/dir readers would see a mix of old and new files
    keep = set(paths)
    for f in glob.glob(os.path.join(out_dir, "pages-*.parquet")):
        if f not in keep:
            os.remove(f)

    def _write(shard: int, lo: int, hi: int, path: str) -> None:
        pq.write_table(generate_shard(shard, lo, hi, seed), path)

    wrote_with_ray = False
    if use_ray:
        try:
            import ray

            if ray.is_initialized():
                task = ray.remote(num_cpus=1)(_write)
                ray.get(
                    [task.remote(s, lo, hi, p) for (s, lo, hi), p in zip(bounds, paths)]
                )
                wrote_with_ray = True
        except Exception:
            wrote_with_ray = False
    if not wrote_with_ray:
        for (s, lo, hi), p in zip(bounds, paths):
            _write(s, lo, hi, p)

    with open(marker, "w") as f:
        f.write(tag)
    return paths


def default_pages_dir(sf: float, mult: int = 1) -> str:
    suffix = f"sf{sf:g}" if mult == 1 else f"sf{sf:g}x{mult}"
    return cache_root("pages", suffix)


def n_rows_for_sf(sf: float) -> int:
    """sf0.001 -> 500 pages, sf0.01 -> 5_000, sf0.1 -> 50_000."""
    return max(100, int(round(500_000 * sf)))


def pages_shape(sf: float, mult: int = 1) -> tuple[int, int]:
    """(n_rows, n_files) the corpus for a scale factor is generated with —
    the same arithmetic ensure_pages uses (single source of truth for code
    that must reason about shard row ranges, e.g. kgqueries.merge_cut_rows)."""
    n = n_rows_for_sf(sf) * mult
    return n, max(8, n // 2000)


def ensure_pages(sf: float, seed: int = 42, mult: int = 1) -> str:
    """Generate (once, cached under state.artifacts.ROOT) the pages corpus
    for a scale factor (optionally ``mult``x larger, e.g. for the scaling
    benchmark); returns the directory."""
    n, n_files = pages_shape(sf, mult)
    d = default_pages_dir(sf, mult)
    write_pages(d, n, n_files=n_files, seed=seed)
    return d
