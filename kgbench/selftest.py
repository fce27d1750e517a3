"""Self-test of the benchmark on tiny corpora (about two minutes on one core).

    python3 kgbench/selftest.py

Checks that BENCHMARK.json keeps to its schema, that one run of each
workload reports every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``) under its declared unit with all outputs
correct, and that a corrupted output (an edges file deleted after the job)
is counted as a failed job.
"""

from __future__ import annotations

import glob
import json
import numbers
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from kgbench import run, workloads  # noqa: E402

TINY_PAGES = {"build_zipf": 64, "build_longtail": 32, "update_delta": 64}


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]], w["name"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"


def check_result(result: dict, want: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}, sorted(
        set(got) ^ {m["name"] for m in want})
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
        assert isinstance(got[m["name"]]["value"], numbers.Real), m


def corrupting(job):
    """Delete one edges file after each job, before its output is checked."""
    def corrupted(out, span):
        result = job(out, span)
        os.remove(sorted(glob.glob(
            os.path.join(out, "edges", "*.parquet")))[0])
        return result
    return corrupted


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    units = run.load_units()
    for name, pages in TINY_PAGES.items():
        for trace, want in ((False, spec["end_to_end"]),
                            (True, spec["per_layer"])):
            check_result(run.run_benchmark(name, 1, 0, trace, n_pages=pages,
                                           units=units), want)
            print(f"ok   {name} trace={int(trace)}", flush=True)
    for name in ("build_zipf", "update_delta"):
        r = run.run_benchmark(name, 1, 0, False, n_pages=TINY_PAGES[name],
                              units=units, wrap_job=corrupting)
        assert not r["correct"] and r["failed"] == r["attempted"] >= 1, r
        print(f"ok   {name} corrupted output counted as failed", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
