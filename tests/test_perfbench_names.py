"""The benchmark wraps package functions by attribute name; every name it
wraps must still resolve, or a traced run fails before its first round."""

import importlib.util
import pathlib

import pytest

from squeezeamp import cli, experiments, frame, gaussian

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: (owner, attribute) pairs the workloads capture in `perfbench/workloads.py`.
CAPTURES = (
    (experiments, "amplify_with_noise"),
    (frame.FrameResult, "lab_density"),
    (cli, "run_sequence"),
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(owner, name):
    return name in owner if isinstance(owner, dict) else hasattr(owner, name)


def test_spans_and_counts_resolve(tracing):
    missing = [name for owner, key, name in tracing.SPANS + tracing.COUNTS
               if not _resolves(owner, key)]
    assert missing == []


def test_frame_steps_count_the_one_map_type():
    # `frame.steps` patches frame.FrameMap.lowering_matrix: a second map class
    # in `gaussian` would leave that count at zero without a failure
    assert frame.FrameMap is gaussian.FrameMap


def test_capture_targets_resolve():
    assert [name for owner, name in CAPTURES if not _resolves(owner, name)] == []


def test_tracer_installs_and_restores(tracing):
    before = {(id(owner), key): tracing._get(owner, key)
              for owner, key, _ in tracing.SPANS + tracing.COUNTS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    after = {(id(owner), key): tracing._get(owner, key)
             for owner, key, _ in tracing.SPANS + tracing.COUNTS}
    assert after == before
