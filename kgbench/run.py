"""KG-construction benchmark: one workload, one seed, one process.

    python3 kgbench/run.py --workload build_longtail --seed 1 --seconds 35 --trace 0

Run from any directory; the package is imported from the checkout that
holds this file. Ray runs locally with one CPU and this process is the
only load generator: a closed loop of one job at a time,
each job into a fresh output directory, for ``--seconds`` seconds. Every
job's output is checked (``kgbench/golden.py``); a job that raises or fails
its check counts in ``failed``, and ``failed / attempted`` is the
benchmark's failed_frac.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the jobs of the run, plus set-up time and memory. ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics as
medians over the traced jobs; the spans go to
``.kgbench_work/trace-<workload>-<seed>.json``.

The last line of stdout is the JSON result; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
# Ray workers import the package and the kernel wrappers by module path
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

from agenticknowledgegraphconstructionsystem_ray.pipelines import kg  # noqa: E402

from kgbench import probes, spans, workloads  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".kgbench_work")
RAY_TEMP = os.path.join(WORK_ROOT, "ray")
SETUP_REPEATS = 3   # input generations per run; set-up reports their median
OBJECT_STORE_BYTES = 512 << 20
# Ray gets one CPU: `nproc` reports 1 on the reference host, and a pinned
# count keeps the job's shape the same on any host the benchmark runs on.
RAY_CPUS = 1
# AF_UNIX paths are capped at 108 bytes; Ray puts its sockets ~64 bytes
# below its temp dir, so a deep checkout falls back to Ray's default.
_MAX_RAY_TEMP = 40


def _ray_sessions() -> set[str]:
    return set(glob.glob(os.path.join(RAY_TEMP, "session_2*")))


def _init_ray() -> None:
    import ray
    import ray.data

    kwargs = {}
    if len(RAY_TEMP) <= _MAX_RAY_TEMP:
        kwargs["_temp_dir"] = RAY_TEMP
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, **kwargs)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _layer_metrics(spans_of_job: list[dict], facts: dict) -> dict:
    """Per-layer metrics of one traced job from its spans."""
    own = spans.self_times(spans_of_job)
    by_name: dict[str, list[dict]] = {}
    for s in spans_of_job:
        by_name.setdefault(s["name"], []).append(s)

    def wall(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_s(name):
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, []))

    m = {
        "job.wall_s": wall(spans.JOB),
        "phase_a.wall_s": wall(spans.PHASE_A),
        "phase_a.pages": count(spans.PHASE_A, "pages"),
        "phase_a.bytes_in": facts["bytes_in"],
        "phase_a.bytes_out": sum(probes.dir_bytes(d)
                                 for d in facts["extracted"]),
        "extract_text.self_s": self_s(spans.EXTRACT_TEXT),
        "extract_records.self_s": self_s(spans.EXTRACT_RECORDS),
        "extract_records.mentions": count(spans.EXTRACT_RECORDS, "mentions"),
        "extract_records.triples": count(spans.EXTRACT_RECORDS, "triples"),
        "canon.self_s": self_s(spans.CANON),
        "canon.surfaces_in": count(spans.CANON, "surfaces_in"),
        "canon.nodes_out": count(spans.CANON, "nodes_out"),
        "phase_b.wall_s": wall(spans.PHASE_B),
        "phase_b.counts_unionfind_s": count(spans.PHASE_B,
                                            "counts_unionfind_s"),
        "phase_b.edges_s": count(spans.PHASE_B, "edges_s"),
        "phase_b.issues_s": count(spans.PHASE_B, "issues_s"),
        "apply_ids.self_s": self_s(spans.APPLY_IDS),
        "validate_edges.self_s": self_s(spans.VALIDATE_EDGES),
        "edge_issues.self_s": self_s(spans.EDGE_ISSUES),
        "edge_issues.rows_out": count(spans.EDGE_ISSUES, "rows"),
        "fts_build.wall_s": wall(spans.FTS_BUILD),
        "fts_build.bytes_out": facts.get("fts_bytes_out", 0),
        "links_merge.wall_s": wall(spans.LINKS_MERGE),
        "links_merge.rows_out": facts.get("links_rows_out", 0),
        "update.chunks_extracted": count(spans.PHASE_A, "chunks_processed"),
        "update.chunks_reused": facts.get("chunks_reused", 0),
    }
    m["phase_a.framework_s"] = (m["phase_a.wall_s"]
                                - m["extract_text.self_s"]
                                - m["extract_records.self_s"])
    pages = count(spans.EXTRACT_TEXT, "rows")
    m["extract_text.pages_per_s"] = (
        pages / m["extract_text.self_s"] if m["extract_text.self_s"] else 0.0)
    m["edges.sort_write_s"] = (m["phase_b.edges_s"] - m["apply_ids.self_s"]
                               - m["validate_edges.self_s"])
    return m


def _run_job(wl, job, out: str, tracer, i: int) -> dict:
    """Run, time and check job ``i`` into a fresh ``out``; traced when a
    tracer is given. A job that raises or fails its check is recorded with
    an ``error``, never raised."""
    shutil.rmtree(out, ignore_errors=True)
    rec = {"traced": tracer is not None, "error": None}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = job(out, spans.no_span)
            rec["wall_s"] = time.perf_counter() - t0
        else:
            def span(name):
                return tracer.span(name, i)

            with tracer.patch(kg, i), span(spans.JOB):
                t0 = time.perf_counter()
                result = job(out, span)
                rec["wall_s"] = time.perf_counter() - t0
        rec["facts"] = facts = wl.facts(out, result)
        rec["error"] = wl.check(out)
        rec["out_bytes"] = probes.dir_bytes(facts["edges_dir"])
        if tracer is not None:
            tracer.collect()
            rec["layers"] = _layer_metrics(
                [s for s in tracer.spans if s["run_id"] == i], facts)
    except Exception as e:  # a failed job is counted, not fatal
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  n_pages: int | None = None, units: dict | None = None,
                  wrap_job=None) -> dict:
    """One benchmark run. ``units`` maps metric name -> unit (from
    BENCHMARK.json); ``wrap_job`` lets the self-test corrupt outputs."""
    import ray

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spin = probes.spin_mops()
    wl = workloads.make(workload, work, seed, n_pages)
    job = wrap_job(wl.job) if wrap_job else wl.job
    setup = {}
    tracer = None
    old_sessions = _ray_sessions()
    try:
        gen = [_timed(wl.generate) for _ in range(SETUP_REPEATS)]
        setup["generate_s"] = statistics.median(gen)
        setup["ray_init_s"] = _timed(_init_ray)
        setup["prepare_s"] = _timed(wl.prepare)
        tracer = spans.Tracer(os.path.join(work, "spans")) if trace else None
        jobs = []
        min_jobs = 2 if trace else 1
        with probes.RssSampler() as rss:
            t_loop = time.perf_counter()
            # start a job only if it should end within the window, judged by
            # the slowest job so far, so a run lasts about set-up + seconds
            while (len(jobs) < min_jobs
                   or time.perf_counter() - t_loop + max(
                       j.get("wall_s", 0) for j in jobs) <= seconds):
                i = len(jobs)
                jobs.append(_run_job(wl, job, os.path.join(work, "out"),
                                     tracer if i % 2 else None, i))
    finally:
        ray.shutdown()
        for session in _ray_sessions() - old_sessions:
            shutil.rmtree(session, ignore_errors=True)
        if tracer is not None:
            tracer.dump(os.path.join(
                WORK_ROOT, f"trace-{workload}-{seed}.json"))
        shutil.rmtree(work, ignore_errors=True)

    ok = [j for j in jobs if j["error"] is None]
    failed = len(jobs) - len(ok)
    setup_s = sum(setup.values())

    def med(values):
        return statistics.median(values) if values else 0.0

    plain = [j for j in ok if not j["traced"]]
    if trace:
        traced = [j for j in ok if j["traced"]]
        names = traced[0]["layers"] if traced else {}
        metrics = {k: med([j["layers"][k] for j in traced]) for k in names}
        metrics["trace.overhead_s"] = (
            med([j["wall_s"] for j in traced])
            - med([j["wall_s"] for j in plain]))
        metrics["calib.spin_mops"] = spin
    else:
        metrics = {
            "docs_per_s": med([j["facts"]["docs"] / j["wall_s"]
                               for j in plain]),
            "triples_per_s": med([j["facts"]["edges"] / j["wall_s"]
                                  for j in plain]),
            "setup_s": setup_s,
            "driver_peak_rss_mb": probes.driver_peak_rss_mb(),
            "cluster_peak_rss_mb": rss.peak_mb,
            "out_bytes_per_triple": med([
                j["out_bytes"] / j["facts"]["edges"] for j in plain
                if j["facts"]["edges"]]),
        }
    units = units or {}
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": trace,
        "calib_spin_mops": round(spin, 2), "ray_cpus": RAY_CPUS,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray": ray.__version__,
        "setup": {k: round(v, 3) for k, v in setup.items()},
        "job_wall_s": [round(j.get("wall_s", -1), 3) for j in jobs],
        "errors": [j["error"] for j in jobs if j["error"]],
    }), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()},
    }


def load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), units=load_units())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
