"""Stateless HTML -> text extraction stage.

Reference analog: the PDF text extractor applied per row
(``extract_and_populate.py:35-71``). Phase A's task
(``pipelines/kg._extract_group``) calls ``extract_text_batch`` on each
batch of pages it reads; the function runs the columnar kernel
``functions.html_text.html_to_text_column`` (a chain of RE2 passes over the
whole ``html`` column). Each row's text depends on that row alone, so output
is byte-identical regardless of parallelism or batch boundaries, and equal
to the sequential reference ``html_to_text`` that the oracles run.

The wide ``html`` binary column is DROPPED here, immediately after use, so it
never reaches the record stage (SURVEY.md §7.4 "wide rows").
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html_text import html_to_text_column


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages(url, warc_ts, html, lang[, ...]) ->
    text_pages(url, warc_ts, text, lang).

    The text column comes from one kernel call over the batch's ``html``
    column; no per-row Python except ``html.unescape`` on rows with ``&``.
    """
    return pa.Table.from_arrays(
        [
            batch.column("url"),
            batch.column("warc_ts"),
            html_to_text_column(batch.column("html")),
            batch.column("lang"),
        ],
        names=["url", "warc_ts", "text", "lang"],
    )
