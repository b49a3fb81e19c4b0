import pytest

import tracing
from tracing import Span
import taskaff.affinity
import taskaff.cli
import taskaff.grouping
import taskaff.learners


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 6.0, 7.5, 0),
        Span("other-root", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 1.0, 5.0, 0),
        Span("y", 4.0, 6.0, 0),
        Span("z", 9.0, 11.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_wrapped_calls_record_parents_and_self_time():
    tracer = tracing.Tracer(clock=FakeClock())
    inner = tracer.span("m.inner", lambda: None)
    outer = tracer.span("m.outer", lambda: inner())
    outer()
    outer()
    per_fn, _, _ = tracer.metrics()
    assert [sp.parent for sp in tracer.spans] == [-1, 0, -1, 2]
    # outer: clock 1..4 with inner 2..3 inside, so 3 s total, 2 s self.
    assert per_fn["m.outer"] == {"s": 6.0, "self_s": 4.0, "calls": 2}
    assert per_fn["m.inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2}


def test_recursive_span_counts_outermost_time_once():
    tracer = tracing.Tracer(clock=FakeClock())

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.span("m.fact", fact)
    wrapped(2)
    per_fn, _, _ = tracer.metrics()
    assert per_fn["m.fact"]["calls"] == 3
    assert per_fn["m.fact"]["s"] == 5.0  # clock 1..6 for the outermost call


def test_install_rebinds_every_module_that_binds_a_function():
    original = taskaff.learners.train_subset
    tracer = tracing.Tracer()
    tracer.install("taskaff")
    try:
        wrapped = taskaff.learners.train_subset
        assert wrapped is not original
        for mod in (taskaff.affinity, taskaff.grouping, taskaff.cli):
            assert mod.train_subset is wrapped
        assert taskaff.cli.cmd_affinity.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for mod in (taskaff.learners, taskaff.affinity, taskaff.grouping, taskaff.cli):
        assert mod.train_subset is original


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(26)))[0] == 50.0
    assert tracing.tail_percentile(list(range(100)))[0] == 90.0
    assert tracing.tail_percentile(list(range(2000)))[0] == 99.0
