"""Local parity harness: run every queries() entry AND its oracle_sql() twice
(Ray vs DuckDB) on the same parquet tables and compare exactly, mirroring the
driver's order-insensitive, dtype-sensitive value comparison. Exits nonzero on
any mismatch.

Comparison kernel: agenticknowledgegraphconstructionsystem_ray.arrowcmp
(Arrow-exact — DuckDB results via ``.arrow()``, never ``.df()``, because
pandas object compare hides type drift like DuckDB SUM(BIGINT) ->
decimal128(38,0) vs Ray int64, which the driver's value-hash DOES fail on).

Usage: python tools/check_oracles.py [--progress PATH] [sf_dir] [query ...]

``--progress PATH`` makes a run resumable: each query that passes is
appended to PATH as it passes, and a rerun with the same PATH skips the
names already there (counting them as passed), so a driver that Ray
aborts mid-run loses only the query it was on.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import duckdb

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from agenticknowledgegraphconstructionsystem_ray.arrowcmp import (  # noqa: E402
    canon,
    diff_report,
    to_arrow,
)
from agenticknowledgegraphconstructionsystem_ray.goldens import (  # noqa: E402
    DRIVER_SF_DIR,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sf_dir", nargs="?", default=DRIVER_SF_DIR)
    ap.add_argument("queries", nargs="*")
    ap.add_argument("--progress", metavar="PATH",
                    help="record passed queries here; skip them on a rerun")
    args = ap.parse_args(argv)
    sf_dir, only = args.sf_dir, set(args.queries)
    passed: set[str] = set()
    if args.progress and os.path.exists(args.progress):
        with open(args.progress) as f:
            passed = {line.strip() for line in f if line.strip()}

    def record(name: str) -> None:
        if args.progress:
            with open(args.progress, "a") as f:
                f.write(name + "\n")

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    from agenticknowledgegraphconstructionsystem_ray.sources.tables import (
        TESTDATA_TABLES,
    )

    for t in TESTDATA_TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    unknown = only - set(queries)
    if unknown:
        print(f"FAIL unknown query name(s): {sorted(unknown)}")
        return 1
    n_checked = 0
    for name, fn in sorted(queries.items()):
        if only and name not in only:
            continue
        n_checked += 1
        if name in passed:
            print(f"ok   {name}: passed in {args.progress} (skipped)")
            continue
        t0 = time.perf_counter()
        try:
            mine = canon(to_arrow(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            failures.append((name, f"ray side raised: {e!r}"))
            print(f"FAIL {name}: ray side raised {e!r}")
            continue
        wall = time.perf_counter() - t0
        if "/tmp/agkg_golden" in oracles.get(name, "") and not sf_dir.rstrip(
            "/"
        ).endswith("sf0.01"):
            # golden-file oracles are pinned to sf0.01 (the driver's
            # correctness scale); at other scales treat as rows-only
            record(name)
            print(f"ok   {name}: rows={mine.num_rows} (golden pinned to sf0.01; rows-only here) [{wall:.2f}s]")
            continue
        if name not in oracles:
            record(name)
            print(f"ok   {name}: rows={mine.num_rows} (no SQL oracle; rows-only) [{wall:.2f}s]")
            continue
        try:
            ref = canon(con.execute(oracles[name]).arrow())
        except Exception as e:  # noqa: BLE001
            failures.append((name, f"duckdb raised: {e!r}"))
            print(f"FAIL {name}: duckdb raised {e!r}")
            continue
        if mine.column_names != ref.column_names:
            failures.append((name, f"columns {mine.column_names} != {ref.column_names}"))
            print(f"FAIL {name}: columns {mine.column_names} vs {ref.column_names}")
            continue
        if mine.num_rows != ref.num_rows:
            failures.append((name, f"rows {mine.num_rows} != {ref.num_rows}"))
            print(f"FAIL {name}: rows {mine.num_rows} vs {ref.num_rows}")
            continue
        if not mine.equals(ref):
            msgs = diff_report(mine, ref)
            failures.append((name, "; ".join(msgs) or "tables differ"))
            print(f"FAIL {name}:")
            for m in msgs[:4]:
                print(m)
        else:
            record(name)
            print(f"ok   {name}: rows={mine.num_rows} exact match [{wall:.2f}s]")

    print(f"\n{n_checked - len(failures)}/{n_checked} queries ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
