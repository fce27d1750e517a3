"""The benchmark's three seeded workloads.

Each workload owns its inputs under its work directory and exposes:

- ``generate()``: write the page corpus for the seed (repeated in set-up,
  so set-up time is reported as a median);
- ``prepare()``: the rest of set-up once Ray is up: worker warm-up and
  the reference to check against (the oracle, computed in a child process
  during the warm-up, or for ``update_delta`` a cold full build), plus
  ``update_delta``'s base build and its artifacts;
- ``job(out, span)``: one timed job, writing only under ``out``; returns
  the program's results;
- ``facts(out, result)``: the counts the metrics divide by, taken after the
  job's timing;
- ``check(out)``: ``None`` when the job's output is correct, else a reason.

The program only ever receives the generated page directories.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from agenticknowledgegraphconstructionsystem_ray import synth
from agenticknowledgegraphconstructionsystem_ray.pipelines import (
    kg,
    kgqueries,
    weblinks,
)
from agenticknowledgegraphconstructionsystem_ray.state import manifest

from . import golden, probes, spans

N_FILES = 8       # input files per corpus; update_delta's delta is the last
CHUNK_FILES = 2   # input files per resumable phase-A chunk
LONGTAIL_K = 12   # unique capitalized surfaces added to each long-tail page

# Pages per corpus, sized so that several jobs fit in one run on one core;
# build_zipf is large enough that canonicalization stays under 5% of its job.
DEFAULT_PAGES = {"build_zipf": 1536, "build_longtail": 256, "update_delta": 240}

# The workloads of BENCHMARK.json. build_zipf's runs do not fit the time the
# whole protocol may take beside two workloads with runs long enough to be
# steady on a shared host, so it is kept for runs by hand only.
GATED = ("build_longtail", "update_delta")

WHY = {
    "build_zipf": "cold build of the stock Zipf-over-500-entities corpus: "
                  "phase A extraction dominates, canonicalization is tiny",
    "build_longtail": "same pages plus unique capitalized surfaces per page: "
                      "an open vocabulary makes the driver union-find dominate",
    "update_delta": "cli update over the last 1/8 of the files against a "
                    "prebuilt base: merge_runs, FTS and link merge carry it",
}

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_SPACE = len(_SYLLABLES) ** 3  # distinct 3-syllable first words


def _word(n: int, width: int) -> str:
    parts = []
    for _ in range(width):
        n, d = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[d])
    return "".join(parts).capitalize()


def _longtail_html(t: pa.Table, seed: int, lo: int, k: int) -> pa.Table:
    """Append ``k`` corpus-unique two-word capitalized surfaces to each
    page's main content. The first word is a bijection of the global
    surface index, so surfaces never repeat; the second is seeded noise."""
    rng = np.random.default_rng([seed, lo])
    htmls = []
    for j, html in enumerate(t["html"].to_pylist()):
        first = (lo + j) * k
        names = [
            f"{_word((g * 7919 + seed * 104729) % _SPACE, 3)} "
            f"{_word(int(rng.integers(0, _SPACE)), 2)}"
            for g in range(first, first + k)
        ]
        para = ("<p>see also " + " and ".join(names) + ".</p>").encode()
        htmls.append(html.replace(b"</main>", para + b"</main>", 1))
    return t.set_column(
        t.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
    )


def write_corpus(pages_dir: str, n_pages: int, seed: int,
                 longtail_k: int = 0) -> list[str]:
    os.makedirs(pages_dir, exist_ok=True)
    paths = []
    for shard, lo, hi in synth.shard_bounds(n_pages, N_FILES):
        t = synth.generate_shard(shard, lo, hi, seed)
        if longtail_k:
            t = _longtail_html(t, seed, lo, longtail_k)
        path = os.path.join(pages_dir, f"pages-{shard:05d}.parquet")
        pq.write_table(t, path)
        paths.append(path)
    return paths


class Build:
    """Cold ``run_pipeline`` over the whole corpus."""

    def __init__(self, work: str, seed: int, n_pages: int,
                 longtail_k: int = 0) -> None:
        self.work, self.seed = work, seed
        self.n_pages, self.longtail_k = n_pages, longtail_k
        self.pages_dir = os.path.join(work, "pages")

    def generate(self) -> None:
        self.files = write_corpus(self.pages_dir, self.n_pages, self.seed,
                                  self.longtail_k)

    def prepare(self) -> None:
        # the warm-up builds the first input file alone: it starts and
        # imports the Ray workers, which the first job would otherwise pay
        warm_pages = os.path.join(self.work, "warmup_pages")
        os.makedirs(warm_pages, exist_ok=True)
        os.link(self.files[0],
                os.path.join(warm_pages, os.path.basename(self.files[0])))
        with golden.oracle_process(
            self.pages_dir, os.path.join(self.work, "oracle.pkl")
        ) as oracle:
            kg.run_pipeline(kg.KGConfig(
                pages_dir=warm_pages, out_dir=os.path.join(self.work, "warmup"),
                chunk_files=CHUNK_FILES))
            self.golden = oracle()

    def job(self, out: str, span) -> dict:
        return kg.run_pipeline(kg.KGConfig(
            pages_dir=self.pages_dir, out_dir=out, chunk_files=CHUNK_FILES))

    def facts(self, out: str, res: dict) -> dict:
        return {
            "docs": res["pages_processed"],
            "edges": res["n_edges"],
            "edges_dir": os.path.join(out, "edges"),
            "bytes_in": sum(os.path.getsize(f) for f in self.files),
            "extracted": [os.path.join(out, "extracted")],
        }

    def check(self, out: str) -> str | None:
        return golden.check_build(out, self.golden)


class UpdateDelta:
    """``cli update`` shape: the base is the first 7/8 of the files, built
    (with its FTS index and link table) in set-up; the job is delta
    extract -> merge_runs -> FTS delta postings -> link-table merge."""

    def __init__(self, work: str, seed: int, n_pages: int) -> None:
        self.work, self.seed, self.n_pages = work, seed, n_pages
        self.dirs = {k: os.path.join(work, k)
                     for k in ("full", "base", "delta")}
        self.base_out = os.path.join(work, "base_out")

    def generate(self) -> None:
        files = write_corpus(self.dirs["full"], self.n_pages, self.seed)
        for k in ("base", "delta"):
            os.makedirs(self.dirs[k], exist_ok=True)
        for i, f in enumerate(files):
            dst = os.path.join(
                self.dirs["delta" if i == len(files) - 1 else "base"],
                os.path.basename(f))
            if os.path.exists(dst):
                os.remove(dst)
            os.link(f, dst)
        self.delta_files = files[-1:]
        self.base_files = files[:-1]

    def prepare(self) -> None:
        full_out = os.path.join(self.work, "full_out")
        kg.run_pipeline(kg.KGConfig(pages_dir=self.dirs["full"],
                                    out_dir=full_out, chunk_files=CHUNK_FILES))
        self.reference = golden.read_graph(full_out)
        kg.run_pipeline(kg.KGConfig(pages_dir=self.dirs["base"],
                                    out_dir=self.base_out,
                                    chunk_files=CHUNK_FILES))
        kgqueries.build_fts_postings(self.base_out,
                                     os.path.join(self.work, "fts_base"))
        self.base_links = weblinks._ensure_link_tables_for(
            self.base_files, os.path.join(self.work, "links_base"))

    def job(self, out: str, span) -> dict:
        delta_out = os.path.join(out, "delta_run")
        kg.ensure_complete(kg.KGConfig(
            pages_dir=self.dirs["delta"], out_dir=delta_out,
            chunk_files=CHUNK_FILES))
        merged = kg.merge_runs([self.base_out, delta_out], out)
        with span(spans.FTS_BUILD):
            fts_root = kgqueries.build_fts_postings(
                delta_out, os.path.join(out, "fts_delta"))
        with span(spans.LINKS_MERGE):
            links_root = weblinks.merge_link_tables(
                self.base_links, self.delta_files, os.path.join(out, "links"))
        return {"merged": merged, "fts_root": fts_root,
                "links_root": links_root}

    def facts(self, out: str, res: dict) -> dict:
        return {
            "docs": sum(pq.read_metadata(f).num_rows for f in self.delta_files),
            "edges": res["merged"]["n_edges"],
            "edges_dir": os.path.join(out, "edges"),
            "bytes_in": sum(os.path.getsize(f) for f in self.delta_files),
            "extracted": [os.path.join(out, "delta_run", "extracted")],
            "chunks_reused": len(manifest.completed_chunks(self.base_out)),
            "fts_bytes_out": probes.dir_bytes(res["fts_root"]),
            "links_rows_out": sum(
                pq.read_metadata(f).num_rows for f in glob.glob(
                    os.path.join(res["links_root"], "links", "*.parquet"))),
        }

    def check(self, out: str) -> str | None:
        return golden.check_same_graph(out, self.reference)


def make(name: str, work: str, seed: int, n_pages: int | None = None):
    n = n_pages or DEFAULT_PAGES[name]
    if name == "build_zipf":
        return Build(work, seed, n)
    if name == "build_longtail":
        return Build(work, seed, n, longtail_k=LONGTAIL_K)
    if name == "update_delta":
        return UpdateDelta(work, seed, n)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
