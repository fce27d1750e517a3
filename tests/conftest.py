"""Session-scoped Ray + shared fixtures (one ray.init per pytest session)."""

from __future__ import annotations

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_dir(tmp_path_factory, ray_session):
    """Small deterministic pages corpus shared across pipeline tests."""
    from agenticknowledgegraphconstructionsystem_ray import synth

    d = tmp_path_factory.mktemp("pages")
    synth.write_pages(str(d), 300, n_files=6)
    return str(d)


@pytest.fixture(scope="session")
def kg_out(tmp_path_factory, pages_dir):
    """One full pipeline run shared by the assertion tests."""
    from agenticknowledgegraphconstructionsystem_ray.pipelines import kg

    out = str(tmp_path_factory.mktemp("kg_out"))
    cfg = kg.KGConfig(pages_dir=pages_dir, out_dir=out, chunk_files=2)
    metrics = kg.run_pipeline(cfg)
    return out, metrics
