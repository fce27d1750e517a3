"""Time phase B over growing prefixes of one long-tail corpus.

Phase B's driver state (the merged counts, the nodes and the id map) grows
with the vocabulary, that is with the mcount partial rows. This script
measures phase B at several sizes of the same corpus:

    python tools/phase_b_sweep.py build WORK N_PAGES
    python tools/phase_b_sweep.py run WORK N_CHUNKS

``build`` writes the kgbench ``build_longtail`` page shape (seed 1, 12
corpus-unique surfaces per page) as files of ``PAGES_PER_FILE`` pages and
runs phase A over it, one file per chunk. ``run`` runs phase B over the
record files of the first ``N_CHUNKS`` chunks, in a fresh Ray session
(``RAY_GRAFT_CPUS`` CPUs, default 4), and prints one JSON line: the
partial-row count, phase B's wall time and timings, the driver's peak RSS
and the peak summed RSS of the Ray workers. Run each measurement in its
own process: the driver's peak RSS is the process high-water mark.
"""
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402

from agenticknowledgegraphconstructionsystem_ray import synth  # noqa: E402
from agenticknowledgegraphconstructionsystem_ray.pipelines import kg  # noqa: E402
from kgbench import probes, workloads  # noqa: E402

PAGES_PER_FILE = 2048
SEED = 1


def _init() -> None:
    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", 4)),
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False


def build(work: str, n_pages: int) -> None:
    pages = os.path.join(work, "pages")
    os.makedirs(pages, exist_ok=True)
    n_files = -(-n_pages // PAGES_PER_FILE)
    for shard, lo, hi in synth.shard_bounds(n_pages, n_files):
        path = os.path.join(pages, f"pages-{shard:05d}.parquet")
        if not os.path.exists(path):
            t = synth.generate_shard(shard, lo, hi, SEED)
            pq.write_table(workloads._longtail_html(
                t, SEED, lo, workloads.LONGTAIL_K), path)
    _init()
    t0 = time.perf_counter()
    kg.run_phase_a(kg.KGConfig(pages_dir=pages, out_dir=os.path.join(work, "a"),
                               chunk_files=1))
    print(json.dumps({"pages": n_pages, "phase_a_s": round(time.perf_counter() - t0, 1)}))


def run(work: str, n_chunks: int) -> None:
    chunks = sorted(os.listdir(os.path.join(work, "a", "extracted")))[:n_chunks]
    records = os.path.join(work, f"records_{n_chunks}")
    if not os.path.isdir(records):
        os.makedirs(os.path.join(records, "extracted"))
        for c in chunks:
            os.symlink(os.path.join(work, "a", "extracted", c),
                       os.path.join(records, "extracted", c))
    out = os.path.join(work, f"b_{n_chunks}")
    shutil.rmtree(out, ignore_errors=True)
    n_partials = sum(pq.read_metadata(f).num_rows
                     for f in kg._kind_files(records, "mcount"))
    _init()
    with probes.RssSampler() as rss:
        r = kg.run_phase_b(kg.KGConfig(pages_dir="", out_dir=out,
                                       record_dirs=(records,)))
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "chunks": n_chunks, "mcount_rows": n_partials,
        "n_nodes": r["n_nodes"], "n_edges": r["n_edges"],
        "phase_b_wall_s": r["phase_b_wall_s"], **r["phase_b_timings"],
        "driver_peak_rss_mb": round(probes.driver_peak_rss_mb(), 1),
        "cluster_peak_rss_mb": round(rss.peak_mb, 1),
    }))


if __name__ == "__main__":
    cmd, work, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if cmd == "build":
        build(work, n)
    else:
        run(work, n)
