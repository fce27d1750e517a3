"""CLI + ``ray job submit`` entry point.

Reference analog: the npm pipeline-step scripts (``agents/package.json:8-16``
— extract / discover / validate as independently runnable steps over shared
storage). Here every step is runnable standalone over the shared Parquet
layout, plus corpus synthesis and the oracle conformance check.

Usage (also works as the ray job entrypoint:
``ray job submit -- python -m agenticknowledgegraphconstructionsystem_ray.cli run ...``):

    python -m agenticknowledgegraphconstructionsystem_ray.cli synth  --sf 0.01 --out /tmp/pages
    python -m agenticknowledgegraphconstructionsystem_ray.cli run    --pages /tmp/pages --out /tmp/kg
    python -m agenticknowledgegraphconstructionsystem_ray.cli extract --pages /tmp/pages --out /tmp/kg
    python -m agenticknowledgegraphconstructionsystem_ray.cli materialize --pages /tmp/pages --out /tmp/kg
    python -m agenticknowledgegraphconstructionsystem_ray.cli check  --pages /tmp/pages --out /tmp/kg

This module owns a Ray session (guarded init; the driver/test harness never
routes through here).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="agenticknowledgegraphconstructionsystem_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="generate the seeded pages corpus")
    sp.add_argument("--sf", type=float, default=0.01)
    sp.add_argument("--out", default=None)
    sp.add_argument("--rows", type=int, default=None)

    for name, help_ in [
        ("run", "full pipeline (phase A + B)"),
        ("extract", "phase A only (resumable extraction)"),
        ("materialize", "phase B only (canonicalize + materialize + validate)"),
        ("check", "compare outputs against the sequential oracle"),
    ]:
        s = sub.add_parser(name, help=help_)
        s.add_argument("--pages", required=True)
        s.add_argument("--out", required=True)
        s.add_argument("--chunk-files", type=int, default=8)
        s.add_argument("--no-resume", action="store_true")
        s.add_argument("--lang", default=None, help="comma list, e.g. en,de")

    sm = sub.add_parser(
        "merge",
        help="incremental-crawl merge: phase B over several runs' artifacts",
    )
    sm.add_argument("--runs", required=True,
                    help="comma list of completed run out-dirs")
    sm.add_argument("--out", required=True)
    sm.add_argument("--open-vocab", action="store_true")
    sm.add_argument("--global-edge-dedup", action="store_true",
                    help="required when the merged runs share urls (re-crawl)")

    sd = sub.add_parser(
        "diff", help="edge-key diff between two completed runs"
    )
    sd.add_argument("--old", required=True)
    sd.add_argument("--new", required=True)
    sd.add_argument("--out", default=None,
                    help="optional parquet path for the full change table")

    si = sub.add_parser(
        "index",
        help="pre-build the per-corpus layout artifacts at ingest time "
             "(ANN index, incremental ANN, BPE tokenizer, SMB buckets, "
             "web-link table) so every downstream query amortizes them",
    )
    si.add_argument("--sf-dir", required=True,
                    help="corpus dir holding the driver-table parquets")
    si.add_argument(
        "--what", default="ann,bpe,smb,links",
        help="comma list of ann,ann-incr,bpe,smb,links (default all but "
             "ann-incr)",
    )

    su = sub.add_parser(
        "update",
        help="incremental-crawl flagship: given a completed base run and a "
             "DELTA pages dir, run delta-extract -> merge_runs -> FTS "
             "delta index -> link-table delta merge in one command; "
             "update cost scales with the delta, never the corpus",
    )
    su.add_argument("--base-pages", default=None,
                    help="pages dir of the already-processed base crawl "
                         "(needed only when --base-out is a plain run; a "
                         "prior update dir carries its own link table)")
    su.add_argument("--base-out", required=True,
                    help="completed base run output dir")
    su.add_argument("--delta-pages", required=True,
                    help="pages dir holding ONLY the new crawl increment")
    su.add_argument("--out", required=True,
                    help="merged output dir (delta run + merged graph + "
                         "index deltas live under it)")
    su.add_argument("--chunk-files", type=int, default=8)
    su.add_argument("--sf-dir", default=None,
                    help="optional driver-table dir: also refresh the "
                         "ANN delta coding and MinHash band-index delta")
    su.add_argument("--global-edge-dedup", action="store_true",
                    help="rejected: update assumes base and delta hold "
                         "disjoint urls; rebuild a re-crawl with run/merge")

    args = p.parse_args(argv)
    if args.cmd == "update" and args.global_edge_dedup:
        p.error("update --global-edge-dedup is not supported: the FTS and "
                "link-table delta paths assume base and delta hold disjoint "
                "urls, so re-crawled urls would double-count in search stats "
                "and link counts; rebuild a re-crawl with `run` or `merge "
                "--global-edge-dedup` instead")
    _ensure_ray()

    from . import metrics, oracle, synth
    from .pipelines import kg

    if args.cmd == "merge":
        res = kg.merge_runs(
            [d.strip() for d in args.runs.split(",") if d.strip()],
            args.out,
            open_vocab=args.open_vocab,
            global_edge_dedup=args.global_edge_dedup,
        )
        print(json.dumps(res))
        return 0

    if args.cmd == "diff":
        from .pipelines.kgqueries import diff_edges

        t = diff_edges(args.old, args.new)
        if args.out:
            import pyarrow.parquet as pq

            pq.write_table(t, args.out)
        import pyarrow.compute as pc

        print(json.dumps({
            "added": int(pc.sum(pc.cast(pc.equal(t["change"], "added"),
                                        "int64")).as_py() or 0),
            "removed": int(pc.sum(pc.cast(pc.equal(t["change"], "removed"),
                                          "int64")).as_py() or 0),
            "out": args.out,
        }))
        return 0

    if args.cmd == "index":
        import time as _time

        built: dict[str, float] = {}
        want = {w.strip() for w in args.what.split(",") if w.strip()}
        steps = {
            "ann": lambda: __import__(
                "agenticknowledgegraphconstructionsystem_ray.stages.annindex",
                fromlist=["ensure_ann_index"],
            ).ensure_ann_index(args.sf_dir),
            "ann-incr": lambda: __import__(
                "agenticknowledgegraphconstructionsystem_ray.stages.annindex",
                fromlist=["ensure_ann_index_incremental"],
            ).ensure_ann_index_incremental(args.sf_dir),
            "bpe": lambda: __import__(
                "agenticknowledgegraphconstructionsystem_ray.pipelines.scoring",
                fromlist=["_ensure_bpe_merges"],
            )._ensure_bpe_merges(args.sf_dir),
            "smb": lambda: __import__(
                "agenticknowledgegraphconstructionsystem_ray.pipelines.training",
                fromlist=["_smb_layout"],
            )._smb_layout(args.sf_dir),
            "links": lambda: __import__(
                "agenticknowledgegraphconstructionsystem_ray.pipelines.weblinks",
                fromlist=["_ensure_link_tables"],
            )._ensure_link_tables(args.sf_dir),
        }
        unknown = want - set(steps)
        if unknown:
            print(f"unknown index kinds: {sorted(unknown)}", file=sys.stderr)
            return 2
        for kind in ("ann", "ann-incr", "bpe", "smb", "links"):
            if kind not in want:
                continue
            t0 = _time.perf_counter()
            steps[kind]()
            built[kind] = round(_time.perf_counter() - t0, 3)
        print(json.dumps({"sf_dir": args.sf_dir, "built_s": built}))
        return 0

    if args.cmd == "update":
        import glob as _glob
        import os as _os
        import time as _time

        from .pipelines import kgqueries, weblinks

        # absolute paths, so the _RUNS/_FTS manifests written below resolve
        # from any working directory (and Ray workers never see a path
        # relative to the caller's)
        for a in ("base_pages", "base_out", "delta_pages", "out"):
            if getattr(args, a):
                setattr(args, a, _os.path.abspath(getattr(args, a)))
        timings: dict[str, float] = {}

        def timed(name, fn):
            t0 = _time.perf_counter()
            r = fn()
            timings[name] = round(_time.perf_counter() - t0, 3)
            return r

        # Chainable: a prior `cli update` out dir records its constituent
        # run dirs (_RUNS) and FTS index roots (_FTS), so pointing
        # --base-out at it composes — update #2 reuses update #1's
        # artifacts untouched and its cost stays delta-bound. The listed
        # run dirs must remain on disk (they hold the phase-A records the
        # merge re-reduces over).
        runs_manifest = _os.path.join(args.base_out, "_RUNS")
        if _os.path.exists(runs_manifest):
            with open(runs_manifest) as f:
                base_runs = json.load(f)
        else:
            base_runs = [args.base_out]

        # 1. delta extract+reduce: phase A scans ONLY the delta pages
        delta_out = _os.path.join(args.out, "delta_run")
        timed("delta_run", lambda: kg.ensure_complete(kg.KGConfig(
            pages_dir=args.delta_pages, out_dir=delta_out,
            chunk_files=args.chunk_files,
        )))

        # 2. merged graph: re-reduce over the UNION of record artifacts —
        # the base pages are never re-read (kg.merge_runs contract)
        res = timed("merge_runs", lambda: kg.merge_runs(
            base_runs + [delta_out], args.out))

        # 3. FTS: base index roots reused verbatim when the base is a
        # prior update (zero work); built once otherwise. The delta index
        # comes from the delta run alone; queries read the union
        # (kgqueries._search_indexed_over), equal to a full rebuild.
        fts_manifest = _os.path.join(args.base_out, "_FTS")
        if _os.path.exists(fts_manifest):
            with open(fts_manifest) as f:
                base_fts = json.load(f)
            timings["fts_base"] = 0.0
        else:
            base_fts = [timed("fts_base", lambda: kgqueries.build_fts_postings(
                args.base_out, _os.path.join(args.out, "fts_base")))]
        fts_delta = timed("fts_delta", lambda: kgqueries.build_fts_postings(
            delta_out, _os.path.join(args.out, "fts_delta")))

        # 4. link table: the base aggregate (a prior update's merged table
        # when chaining, else built from --base-pages) + delta-only scan,
        # merged by one host-pair groupby-sum
        delta_files = sorted(
            _glob.glob(_os.path.join(args.delta_pages, "*.parquet")))
        prior_links = _os.path.join(args.base_out, "links")
        if _os.path.exists(_os.path.join(prior_links, "_DONE")):
            base_links = prior_links
            timings["links_base"] = 0.0
        else:
            if not args.base_pages:
                p.error("--base-pages is required unless --base-out is a "
                        "prior update dir (holds links/_DONE)")
            base_files = sorted(
                _glob.glob(_os.path.join(args.base_pages, "*.parquet")))
            base_links = timed("links_base", lambda: (
                weblinks._ensure_link_tables_for(
                    base_files, _os.path.join(args.out, "links_base"))))
        timed("links_merge", lambda: weblinks.merge_link_tables(
            base_links, delta_files, _os.path.join(args.out, "links")))

        # manifests that make THIS out dir usable as the next --base-out
        with open(_os.path.join(args.out, "_RUNS"), "w") as f:
            json.dump(base_runs + [delta_out], f)
        with open(_os.path.join(args.out, "_FTS"), "w") as f:
            json.dump(list(base_fts) + [fts_delta], f)

        # 5. optional driver-table deltas (ANN coding, MinHash bands)
        if args.sf_dir:
            from .stages import annindex, dedup

            timed("ann_delta", lambda: annindex.ensure_ann_index_incremental(
                args.sf_dir))
            timed("minhash_delta",
                  lambda: dedup.minhash_near_dups_incremental(args.sf_dir))

        print(json.dumps({
            "out": args.out,
            "merged": res,
            "timings_s": timings,
        }))
        return 0

    if args.cmd == "synth":
        n = args.rows or synth.n_rows_for_sf(args.sf)
        out = args.out or synth.default_pages_dir(args.sf)
        paths = synth.write_pages(out, n, n_files=max(8, n // 2000))
        print(json.dumps({"pages_dir": out, "n_rows": n, "n_files": len(paths)}))
        return 0

    cfg = kg.KGConfig(
        pages_dir=args.pages,
        out_dir=args.out,
        chunk_files=args.chunk_files,
        resume=not args.no_resume,
        lang_allow=(
            frozenset(x.strip() for x in args.lang.split(",") if x.strip())
            if args.lang
            else None
        ),
    )
    if args.cmd == "run":
        print(json.dumps(kg.run_pipeline(cfg)))
    elif args.cmd == "extract":
        print(json.dumps(kg.run_phase_a(cfg)))
    elif args.cmd == "materialize":
        print(json.dumps(kg.run_phase_b(cfg)))
    elif args.cmd == "check":
        import glob as g

        import pyarrow.parquet as pq

        golden_text = oracle.oracle_text(args.pages)
        text = pq.read_table(
            sorted(g.glob(f"{args.out}/extracted/chunk=*/kind=page/*.parquet")),
            columns=["url", "text"],
        )
        mismatches = sum(
            golden_text[u] != t
            for u, t in zip(text["url"].to_pylist(), text["text"].to_pylist())
        )
        _, golden = oracle.oracle_graph(
            args.pages, cfg.alias_dict(), lang_allow=cfg.lang_allow
        )
        e = pq.read_table(
            sorted(g.glob(f"{args.out}/edges/**/*.parquet", recursive=True)),
            columns=["subj", "pred", "obj"],
        )
        emitted = set(
            zip(e["subj"].to_pylist(), e["pred"].to_pylist(), e["obj"].to_pylist())
        )
        pr = metrics.precision_recall(emitted, golden)
        result = {
            "text_rows": text.num_rows,
            "text_expected": len(golden_text),
            "text_mismatches": mismatches,
            "precision": pr[0],
            "recall": pr[1],
            "pass": (
                mismatches == 0
                and text.num_rows == len(golden_text)  # no silently dropped pages
                and pr[0] >= 0.95
                and pr[1] >= 0.95
            ),
        }
        print(json.dumps(result))
        return 0 if result["pass"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
