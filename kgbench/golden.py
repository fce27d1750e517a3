"""Per-run correctness checks and the oracle they compare against.

Build workloads: every extracted page text must be byte-identical to
``oracle.oracle_text`` and the emitted ``(subj, pred, obj)`` set must equal
``oracle.oracle_graph``'s golden set (precision and recall 1.0; below 0.95
is a failure by the pipeline's own contract, anything short of equality is
a failure here). ``update_delta``: the merged nodes and edges tables must
equal those of a cold build of the full corpus.

The oracle runs in a child process (``python -m kgbench.golden PAGES OUT``)
so its memory never shows in the driver's peak RSS.
"""

from __future__ import annotations

import contextlib
import glob
import os
import pickle
import subprocess
import sys

import pyarrow.parquet as pq


def _files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))


def compute_oracle(pages_dir: str) -> dict:
    from agenticknowledgegraphconstructionsystem_ray import oracle, synth

    _, triples = oracle.oracle_graph(pages_dir, synth.alias_dict())
    return {"text": oracle.oracle_text(pages_dir), "triples": triples}


@contextlib.contextmanager
def oracle_process(pages_dir: str, pickle_path: str):
    """Compute the oracle for ``pages_dir`` in a child process while the
    caller's block runs; yields a function that waits for and loads it.
    The child is always ended before the block exits."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "kgbench.golden", pages_dir, pickle_path],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )

    def result() -> dict:
        if proc.wait() != 0:
            raise RuntimeError(f"oracle process exited with {proc.returncode}")
        with open(pickle_path, "rb") as f:
            return pickle.load(f)

    try:
        yield result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def check_build(out_dir: str, golden: dict) -> str | None:
    """None when the run's text and triples match the oracle, else why not."""
    text = pq.read_table(
        sorted(glob.glob(os.path.join(
            out_dir, "extracted", "chunk=*", "kind=page", "*.parquet"))),
        columns=["url", "text"],
    )
    want = golden["text"]
    if text.num_rows != len(want):
        return f"text rows {text.num_rows} != oracle {len(want)}"
    bad = sum(
        want.get(u) != t
        for u, t in zip(text["url"].to_pylist(), text["text"].to_pylist())
    )
    if bad:
        return f"{bad} page texts differ from the oracle"
    e = pq.read_table(_files(os.path.join(out_dir, "edges")),
                      columns=["subj", "pred", "obj"])
    emitted = set(zip(e["subj"].to_pylist(), e["pred"].to_pylist(),
                      e["obj"].to_pylist()))
    if emitted != golden["triples"]:
        return (f"triple set differs: {len(emitted - golden['triples'])} "
                f"extra, {len(golden['triples'] - emitted)} missing")
    return None


def read_graph(out_dir: str):
    """(nodes, edges) tables of a finished run, in file order."""
    return tuple(
        pq.read_table(_files(os.path.join(out_dir, part)))
        for part in ("nodes", "edges")
    )


def check_same_graph(out_dir: str, ref) -> str | None:
    nodes, edges = read_graph(out_dir)
    if not nodes.equals(ref[0]):
        return f"nodes differ from the cold build ({nodes.num_rows} rows)"
    if not edges.equals(ref[1]):
        return f"edges differ from the cold build ({edges.num_rows} rows)"
    return None


if __name__ == "__main__":
    with open(sys.argv[2], "wb") as f:
        pickle.dump(compute_oracle(sys.argv[1]), f)
