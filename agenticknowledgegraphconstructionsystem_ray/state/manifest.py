"""Per-partition lineage manifests + resume anti-join.

Filesystem port of the reference's ``extraction_logs`` ledger
(``/root/reference/db_init.py:150-159``) and its resume anti-join
(``agents/src/database.ts:66-81`` ``NOT EXISTS`` pattern;
skip-if-done ``extract_and_populate.py:171-175``):

- every completed processing chunk writes ``_manifests/chunk-{id}.json``
  as soon as its last phase-A task returns, with input files, input page
  count, output rows per record kind (as counted by the tasks that wrote
  them), status, its wall time (first task submitted -> promotion) and
  any quarantined input files;
- a re-run plans chunks, anti-joins against existing manifests (driver-side
  set difference — the planned chunk list is tiny), and only processes the
  remainder;
- chunk output directories are written to a temp name and atomically renamed
  BEFORE the manifest is written, so a manifest implies complete output.
"""

from __future__ import annotations

import json
import os
import shutil


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifests")


def manifest_path(out_dir: str, chunk_id: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"chunk-{chunk_id:05d}.json")


def write_manifest(out_dir: str, chunk_id: int, payload: dict) -> None:
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    path = manifest_path(out_dir, chunk_id)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, sort_keys=True)
    os.replace(tmp, path)  # atomic commit


def read_manifest(out_dir: str, chunk_id: int) -> dict | None:
    path = manifest_path(out_dir, chunk_id)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, OSError):
        # ValueError covers JSONDecodeError AND UnicodeDecodeError — a
        # torn/corrupt manifest must read as "not done", never abort resume
        return None


def completed_chunks(out_dir: str) -> set[int]:
    """Chunk ids with a committed, successful manifest."""
    d = manifest_dir(out_dir)
    done: set[int] = set()
    if not os.path.isdir(d):
        return done
    for name in os.listdir(d):
        if name.startswith("chunk-") and name.endswith(".json"):
            try:
                cid = int(name[len("chunk-") : -len(".json")])
            except ValueError:
                continue
            m = read_manifest(out_dir, cid)
            if m is not None and m.get("status") == "success":
                done.add(cid)
    return done


def pending_chunks(out_dir: str, planned: list[int]) -> list[int]:
    """Resume anti-join: planned minus completed (database.ts:66-81 analog)."""
    done = completed_chunks(out_dir)
    return [c for c in planned if c not in done]


def atomic_replace_dir(tmp_dir: str, final_dir: str) -> None:
    """Atomically promote a staged chunk output directory."""
    os.makedirs(os.path.dirname(final_dir), exist_ok=True)
    if os.path.isdir(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)


def clear_stale_tmp(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
