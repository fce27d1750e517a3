"""Stateless HTML -> text extraction stage.

Reference analog: the PDF text extractor applied per row
(``/root/reference/extract_and_populate.py:35-71``). Ray mapping (SURVEY.md
S4): ``ds.map_batches(extract_text_batch, batch_format="pyarrow")`` —
stateless task running the columnar kernel
``functions.html_text.html_to_text_column`` (a chain of RE2 passes over the
whole ``html`` column). Each row's text depends on that row alone, so output
is byte-identical regardless of parallelism or batch boundaries, and equal
to the sequential reference ``html_to_text`` that the oracles run.

The wide ``html`` binary column is DROPPED here, immediately after use, so it
never flows through the rest of the DAG (SURVEY.md §7.4 "wide rows").
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html_text import html_to_text_column


def extract_text_batch(
    batch: pa.Table, path_to_chunk: dict[str, str] | None = None
) -> pa.Table:
    """pages(url, warc_ts, html, text, lang[, path]) ->
    text_pages(url, warc_ts, text, lang[, chunk]).

    The text column comes from one kernel call over the batch's ``html``
    column; no per-row Python except ``html.unescape`` on rows with ``&``.

    ``path_to_chunk``: optional map from source file path (the ``path``
    column of ``read_parquet(include_paths=True)``) to the lineage chunk
    tag — a tiny dict shipped by value, which keeps the whole phase-A chain
    (read -> extract -> records -> write) a single fused task operator
    instead of per-chunk dataset unions that fragment operator fusion.
    """
    arrays = [
        batch.column("url"),
        batch.column("warc_ts"),
        html_to_text_column(batch.column("html")),
        batch.column("lang"),
    ]
    names = ["url", "warc_ts", "text", "lang"]
    if path_to_chunk is not None and "path" in batch.schema.names:
        tags = [path_to_chunk[p] for p in batch.column("path").to_pylist()]
        arrays.append(pa.array(tags, pa.string()))
        names.append("chunk")
    elif "chunk" in batch.schema.names:  # pre-tagged input passed through
        arrays.append(batch.column("chunk"))
        names.append("chunk")
    return pa.Table.from_arrays(arrays, names=names)
