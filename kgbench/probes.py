"""Host, memory and storage probes.

- ``RssSampler``: a daemon thread summing the RSS of every ``ray::`` worker
  process from ``/proc`` (the cluster side of a job).
- ``driver_peak_rss_mb``: the driver's high-water RSS from ``getrusage``.
- ``dir_bytes``: on-disk bytes of the files under a directory.
- ``spin_mops``: a pure-Python CPU spin, recorded beside each run so a slow
  host shows as such; it is not gated.
"""

from __future__ import annotations

import os
import resource
import threading
import time


class RssSampler:
    """Peak of summed ``ray::`` worker RSS, sampled every ``interval_s``
    while the sampler is running. A pid's command line is read once, so a
    sample costs one ``/proc`` listing plus one ``statm`` read per worker."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._is_worker: dict[str, bool] = {}
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _is_ray_worker(self, pid: str) -> bool:
        known = self._is_worker.get(pid)
        if known is not None:
            return known
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            return False  # the process ended between listdir and read
        if b"default_worker" not in cmd:  # a worker not yet renamed ray::
            self._is_worker[pid] = cmd.startswith(b"ray::")
        return cmd.startswith(b"ray::")

    def _sample(self) -> int:
        total = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or not self._is_ray_worker(pid):
                continue
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except OSError:
                continue
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, self._sample())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)


def driver_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def spin_mops(n: int = 2_000_000) -> float:
    """Million loop iterations per second of a pure-Python spin."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i
    return n / (time.perf_counter() - t0) / 1e6
