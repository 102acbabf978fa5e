"""Tests of the benchmark's own arithmetic: tail selection, self times, failure counting."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import CheckFailed, Tracer  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(25, 0, -1)]
    assert harness.tail_percentile(samples) == (60.0, 15.0)
    assert harness.tail_percentile(samples[:11]) == (100.0 / 11, 15.0)
    assert harness.tail_percentile(samples[:10]) is None


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=FakeClock(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0))
    leaf = tracer.wrap("m.leaf", lambda: None)
    child = tracer.wrap("m.child", leaf)

    def body():
        child()  # child [2, 5] around leaf [3, 4]
        leaf()  # leaf [6, 7]

    tracer.wrap("m.outer", body)()  # outer [0, 10]
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("m.outer", None), ("m.child", 0), ("m.leaf", 1), ("m.leaf", 0)]
    assert harness.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    # the op ran over [-1, 12]: three seconds lie outside every span
    assert harness.unattributed(spans, -1.0, 12.0) == 3.0
    assert sum(harness.self_times(spans).values()) + 3.0 == 13.0


def test_covered_merges_overlapping_intervals():
    assert harness.covered([(1, 3), (2, 5), (7, 8)], 0, 7.5) == 4.5


def test_failed_ops_count_raises_and_failed_checks():
    seen = []

    def run(i, inp):
        if i == 2:
            raise ValueError("boom")
        return inp

    def check(inp, out):
        if inp == 3:
            raise CheckFailed("wrong answer")
        return 0.5

    res = harness.run_loop(lambda i: i, run, check, seconds=0.0, min_ops=5,
                           after=lambda i, start, end: seen.append(i))
    assert (res.attempted, res.failed) == (5, 2)
    assert [ok for *_, ok in res.intervals] == [True, False, False, True, True]
    assert res.errors == [0.5, 0.5, 0.5]
    assert len(res.op_seconds()) == 3
    assert seen == [1, 2, 3, 4, 5]  # after() also runs for the op that raised


def test_tracer_rebinds_every_importer_and_restores():
    home = types.ModuleType("home")
    home.f = lambda x: x + 1
    user = types.ModuleType("user")
    user.f = home.f
    original = home.f
    tracer = Tracer()
    bindings = harness.bindings_for(tracer, [(home, "f", "home.f")], [home, user])
    assert len(bindings) == 2
    with tracer.op(7, bindings):
        assert user.f(1) == 2
        with pytest.raises(TypeError):
            home.f(None)
    assert home.f is original and user.f is original
    spans = tracer.take()
    assert [(s.op, s.name, s.failed) for s in spans] == [(7, "home.f", False), (7, "home.f", True)]


def test_benchmark_json_matches_metric_tables():
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import layers
    import run

    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
