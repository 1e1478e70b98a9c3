"""Self-time arithmetic of the benchmark's spans, on hand-built spans."""

import threading

import pytest

from spans import Span, Tracer, covered_length, self_times


def _span(start, end, parent=-1, name="f"):
    return Span(name=name, layer="x", start=start, end=end, parent=parent, run="r", thread=0)


def test_sequential_children_are_subtracted():
    spans = [_span(0, 10), _span(1, 3, 0), _span(4, 6, 0)]
    assert self_times(spans) == pytest.approx([6, 2, 2])


def test_overlapping_children_count_once():
    # two worker threads under one call: the covered part is the union
    spans = [_span(0, 10), _span(1, 5, 0), _span(2, 6, 0)]
    assert self_times(spans)[0] == pytest.approx(5)


def test_child_outside_parent_is_clipped():
    spans = [_span(0, 10), _span(8, 12, 0), _span(-3, -1, 0)]
    assert self_times(spans)[0] == pytest.approx(8)


def test_grandchildren_only_reduce_their_own_parent():
    spans = [_span(0, 10), _span(0, 4, 0), _span(1, 2, 1)]
    selfs = self_times(spans)
    assert selfs == pytest.approx([6, 3, 1])
    assert sum(selfs) == pytest.approx(spans[0].duration)


def test_covered_length_merges_touching_and_nested_intervals():
    assert covered_length([(0, 2), (2, 3), (5, 9), (6, 7)], 0, 10) == pytest.approx(7)
    assert covered_length([], 0, 10) == 0


def test_tracer_links_nested_spans_and_worker_threads():
    tracer = Tracer()
    tracer.run = "r1"

    def job():
        with tracer.span("job"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        worker = threading.Thread(target=job)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "job"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert {s.run for s in tracer.spans} == {"r1"}
    assert tracer.spans[1].start >= tracer.spans[0].start
    assert tracer.spans[0].end >= tracer.spans[1].end


def _bindings():
    import inspect
    import sys

    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("sitsgraph"):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj):
                    out.update({(name, attr, m): v for m, v in vars(obj).items()})
    return out


def test_instrument_records_calls_through_imported_names_and_restores():
    pytest.importorskip("sitsgraph")
    import numpy as np
    import sitsgraph.cli  # noqa: F401  (loads every module of the package)
    from sitsgraph import metrics
    from sitsgraph.forecast import model
    from sitsgraph.neural.autograd import Tensor

    from spans import instrument

    before = _bindings()
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        metrics.confusion(np.array([0, 1]), np.array([0, 1]), 2)
        model.huber(Tensor(np.zeros((2, 1))), np.ones((2, 1)))  # module alias of the autograd function
    finally:
        restore()
    assert [(s.name, s.layer) for s in tracer.spans] == [("metrics.confusion", "metrics"), ("neural.huber", "neural")]
    assert _bindings() == before
