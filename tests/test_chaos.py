"""Process-level fault injection: SIGKILL busy Ray workers mid-pipeline
and assert the job still completes with byte-identical output.

Chunk-level resume identity already exists (tests/test_resume.py); this
covers the other failure mode a 256-node cluster hits daily — a worker
process dying mid-task — relying on Ray's task retry to re-execute the
lost work. The pipeline's phase A (extract+write) and phase B (edge sort)
both run under the killer."""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

import pyarrow.parquet as pq


def _busy_ray_workers() -> list[int]:
    """PIDs of non-idle Ray task workers (process title 'ray::<Task>')."""
    me = os.getpid()
    pids = []
    for p in os.listdir("/proc"):
        if not p.isdigit() or int(p) == me:
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if cmd.startswith("ray::") and "IDLE" not in cmd:
            pids.append(int(p))
    return pids


class _Killer(threading.Thread):
    """Kills up to ``n`` busy workers, one every ``period`` seconds, while
    the pipeline runs on the main thread."""

    def __init__(self, n: int = 3, period: float = 0.1):
        super().__init__(daemon=True)
        self.n, self.period = n, period
        self.killed = 0
        self._halt = threading.Event()

    def run(self):
        while self.killed < self.n and not self._halt.is_set():
            time.sleep(self.period)
            for pid in _busy_ray_workers()[:1]:
                try:
                    os.kill(pid, signal.SIGKILL)
                    self.killed += 1
                except OSError:
                    pass

    def stop(self):
        self._halt.set()


def _edges(out_dir: str):
    return pq.read_table(sorted(glob.glob(
        os.path.join(out_dir, "edges/**/*.parquet"), recursive=True)))


def test_pipeline_survives_worker_kills(ray_session, tmp_path):
    from agenticknowledgegraphconstructionsystem_ray import synth
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    pages = str(tmp_path / "pages")
    synth.write_pages(pages, 600, n_files=6)

    clean_out = str(tmp_path / "clean")
    kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=clean_out,
                                chunk_files=2))

    chaos_out = str(tmp_path / "chaos")
    killer = _Killer(n=3, period=0.1)
    killer.start()
    try:
        kg.run_pipeline(kg.KGConfig(pages_dir=pages, out_dir=chaos_out,
                                    chunk_files=2))
    finally:
        killer.stop()
        killer.join(timeout=5)

    assert _edges(chaos_out).equals(_edges(clean_out))
    # the run completed and was marked complete despite the kills
    assert os.path.exists(os.path.join(chaos_out, "_COMPLETE"))
    # the injection actually fired at least once on this host; if no
    # worker was ever busy long enough to be hit, the test proved nothing
    # and should say so rather than silently pass
    assert killer.killed >= 1, "no worker was killed — widen the window"
