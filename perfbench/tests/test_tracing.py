"""Span arithmetic and wrapper removal."""

import threading

import pytest

import tracing
from tracing import Span, Tracer


def spans(*rows):
    return [Span(span_id, parent, name, start, end)
            for span_id, parent, name, start, end in rows]


def test_self_time_subtracts_direct_children_only():
    recorded = spans(
        (1, None, "run", 0.0, 10.0),
        (2, 1, "chunk", 1.0, 6.0),
        (3, 2, "solve", 2.0, 5.0),
        (4, 1, "write", 7.0, 8.0),
    )
    selfs = tracing.self_times(recorded)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(5.0 - 3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    recorded = spans(
        (1, None, "run", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),
        (4, 1, "c", 9.0, 12.0),
    )
    assert tracing.self_times(recorded)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_do_not_double_count_reentry():
    recorded = spans(
        (1, None, "fit", 0.0, 4.0),
        (2, 1, "solve", 1.0, 3.0),
        (3, 2, "fit", 1.5, 2.5),
        (4, None, "fit", 5.0, 6.0),
    )
    assert tracing.total_time(recorded, "fit") == pytest.approx(5.0)
    assert tracing.call_count(recorded, "fit") == 3
    assert tracing.total_self_time(recorded, "solve") == pytest.approx(1.0)


def test_tracer_nests_spans_per_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None

    seen = []

    def other_thread():
        span = tracer.begin("elsewhere")
        seen.append(span.parent_id)
        tracer.end(span)

    held = tracer.begin("held")
    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(held)
    assert seen == [None]


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self, value):
        return value * 2


def module_function(value):
    return value + 1


def test_wrappers_record_and_are_fully_removed():
    import sys

    module = sys.modules[__name__]
    originals = (vars(Child)["own"], module.module_function)
    tracer = Tracer()
    tracer.wrap(Child, "own", "child.own",
                after=lambda token, result, args, kwargs:
                tracer.count("doubled", result))
    tracer.wrap(Child, "inherited", "child.inherited")
    tracer.wrap(module, "module_function", "module.function")
    assert len(tracer._patches) == 3
    assert Child().own(3) == 6
    assert Child().inherited() == "base"
    assert module.module_function(1) == 2
    assert [span.name for span in tracer.spans] == [
        "child.own", "child.inherited", "module.function"]
    assert tracer.counters == {"doubled": 6}

    tracer.restore()
    assert not tracer._patches
    assert vars(Child)["own"] is originals[0]
    assert "inherited" not in vars(Child)
    assert Child.inherited is Base.inherited
    assert module.module_function is originals[1]
    Child().own(1)
    assert len(tracer.spans) == 3


def test_span_closes_and_wrapper_restores_when_the_call_raises():
    class Boom:
        def fail(self):
            raise ValueError("boom")

    original = vars(Boom)["fail"]
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(Boom, "fail", "boom")
            Boom().fail()
    assert vars(Boom)["fail"] is original
    assert [span.name for span in tracer.spans] == ["boom"]
    assert tracer.spans[0].end is not None
