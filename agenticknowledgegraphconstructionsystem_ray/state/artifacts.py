"""The one protocol for persisted artifact caches.

A cache layout (ANN index, BPE merge table, SMB buckets, link table,
full-text index, MinHash band index, merged KG run) lives in one root
directory and is valid only while ``root/_DONE`` holds its *contract*: a
JSON dict of the build parameters plus the identity of the source data
(``source_fingerprint``), so a regenerated or swapped corpus at the same
root rebuilds instead of serving stale results. ``ensure_artifact`` is the
only code that checks, builds and promotes such a layout:

- the caller computes the contract before anything is touched, so a
  vanished or empty source raises while a valid layout stays in place;
- an equal contract in ``root/_DONE`` is a cache hit;
- otherwise the layout is built into ``root.tmp.<pid>`` and the marker is
  written last, so a crash mid-build never touches ``root``;
- a matching layout promoted meanwhile by a concurrent builder wins;
  otherwise the stale root is moved aside only now, at promote time, and
  the new layout renamed into place (the old one is restored if that
  rename fails).

Readers treat a ``_DONE`` that disappears mid-read as a retryable error
(the layout was replaced under them), never as an empty result.

Every cache root sits below ``ROOT`` (``cache_root``), read at call time.

Reference parity: the reference tracks processed inputs in a Postgres
ledger keyed by content identity (db_init.py:150-159,
agents/src/database.ts:66-81); here the same contract is carried by the
artifact marker itself.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
from typing import Callable

ROOT = "/tmp"
MARKER = "_DONE"


def cache_root(kind: str, *parts: str) -> str:
    """``<ROOT>/agkg_<kind>/<parts...>``: the one place cache paths are
    spelled."""
    return os.path.join(ROOT, f"agkg_{kind}", *parts)


def source_fingerprint(*paths: str, pattern: str = "*.parquet") -> str:
    """Compact identity of a set of source files: sha1 over the sorted
    (abspath, size, mtime_ns) triples, O(1) in size however many shards
    the source spans. Each path may be a file or a directory (fingerprints
    the ``pattern`` files inside). A missing path or an empty resolved
    file set raises: a vanished source is an error, never a fingerprint
    that could match a cached build."""
    files: list[str] = []
    for p in paths:
        p = os.path.abspath(p)
        if os.path.isdir(p):
            files.extend(glob.glob(os.path.join(p, pattern)))
        else:
            os.stat(p)  # raise FileNotFoundError on a vanished source
            files.append(p)
    if not files:
        raise FileNotFoundError(
            f"empty source set: no {pattern} files in {list(paths)}")
    triples = []
    for f in sorted(files):
        st = os.stat(f)
        triples.append((f, st.st_size, st.st_mtime_ns))
    return hashlib.sha1(repr(triples).encode()).hexdigest()


def read_contract(root: str) -> dict | None:
    """The contract in ``root/_DONE``; None when absent or unreadable."""
    try:
        with open(os.path.join(root, MARKER)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def ensure_artifact(
    root: str, contract: dict, build: Callable[[str], None]
) -> str:
    """Return ``root`` holding a layout built under ``contract``, calling
    ``build(tmp)`` to write a fresh layout into an empty directory when
    the marker does not match (module docstring has the protocol)."""
    contract = json.loads(json.dumps(contract))  # compare as stored
    if read_contract(root) == contract:
        return root
    tmp = f"{root}.tmp.{os.getpid()}"
    old = f"{root}.old.{os.getpid()}"
    for d in (tmp, old):  # leftovers of a crashed build with this pid
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(tmp)
    try:
        build(tmp)
        with open(os.path.join(tmp, MARKER), "w") as f:
            json.dump(contract, f)
        if read_contract(root) == contract:  # a concurrent builder won
            return root
        if os.path.exists(root):
            os.replace(root, old)
        try:
            os.replace(tmp, root)
        except OSError:
            if read_contract(root) == contract:
                return root
            if not os.path.exists(root) and os.path.exists(old):
                os.replace(old, root)
            raise
        return root
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)
