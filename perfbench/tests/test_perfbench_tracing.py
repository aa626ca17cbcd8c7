"""Self-time arithmetic, span parentage and patching of the benchmark tracer."""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.tracing import Marks, Span, Tracer, covered, self_times, summarize  # noqa: E402
from perfbench.workloads import REFERENCE_PROBE_S, _rounds, _scaled_gaps  # noqa: E402


def _span(id, start, end, parent=None, rid=None, name="x", error=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, rid=rid, error=error)


def test_covered_is_the_clipped_union():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_the_union_of_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: counted once
        _span(3, 2.5, 2.75, parent=2),  # grandchild: only shortens span 2
        _span(4, 7.0, 8.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(0.25)


def test_overlapping_requests_do_not_shorten_each_other():
    # Two requests in flight at once on one event loop: A [0, 10] and
    # B [2, 8], each with one child.  B's child overlaps A in time but
    # belongs to request 2, so A's self time ignores it.
    spans = [
        _span(0, 0.0, 10.0, rid=1, name="serving.query_async"),
        _span(1, 1.0, 2.0, parent=0, rid=1, name="recsys.top_k_batch"),
        _span(2, 2.0, 8.0, rid=2, name="serving.query_async"),
        _span(3, 3.0, 7.0, parent=2, rid=2, name="recsys.top_k_batch"),
        # A span that claims A as parent but carries request 2 (a leaked
        # context) is not A's child either.
        _span(4, 4.0, 6.0, parent=0, rid=2, name="serving.cache"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(9.0)
    assert selfs[2] == pytest.approx(2.0)
    table = summarize(spans)
    assert table["serving.query_async"]["calls"] == 2
    assert table["serving.query_async"]["self_s"] == pytest.approx(11.0)
    assert table["recsys.top_k_batch"]["total_s"] == pytest.approx(5.0)


def test_summarize_counts_errors_and_units():
    spans = [
        _span(0, 0.0, 1.0, name="attack.select", error="MaskedTreeError"),
        _span(1, 1.0, 2.0, name="attack.select"),
    ]
    spans[1].units = 3
    row = summarize(spans)["attack.select"]
    assert row["errors"] == {"MaskedTreeError": 1}
    assert row["units"] == 3


class _Owner:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        if n < 0:
            raise ValueError("negative")
        return n

    @classmethod
    def build(cls, n):
        return n * 2


class _Child(_Owner):
    pass


def test_tracer_records_parentage_errors_and_restores_attributes():
    originals = (_Owner.__dict__["work"], _Owner.__dict__["inner"], _Owner.__dict__["build"])
    with Tracer() as tracer:
        tracer.patch(_Owner, "work", "t.work")
        tracer.patch(_Owner, "inner", "t.inner", units_of=lambda self, n: n)
        tracer.patch(_Owner, "build", "t.build")
        assert _Child().work(3) == 4
        assert _Child.build(2) == 4
        with pytest.raises(ValueError):
            _Owner().work(-1)
    assert (_Owner.__dict__["work"], _Owner.__dict__["inner"], _Owner.__dict__["build"]) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["t.inner", "t.work", "t.build", "t.inner", "t.work"]
    inner, work = tracer.spans[0], tracer.spans[1]
    assert inner.parent == work.id and work.parent is None
    assert inner.units == 3
    assert tracer.spans[3].error == "ValueError" and tracer.spans[4].error == "ValueError"
    assert all(s.start <= s.end for s in tracer.spans)


def test_patching_an_inherited_method_restores_inheritance():
    with Tracer() as tracer:
        tracer.patch(_Child, "inner", "t.inner")
        assert "inner" in vars(_Child)
        _Child().inner(1)
    assert "inner" not in vars(_Child)
    assert len(tracer.spans) == 1


def test_concurrent_coroutines_keep_their_own_parent_and_request_id():
    class Service:
        async def query(self, rid, delay):
            await asyncio.sleep(delay)
            return self.score(rid)

        def score(self, rid):
            time.sleep(0.001)
            return rid

    async def main():
        service = Service()
        return await asyncio.gather(service.query(1, 0.02), service.query(2, 0.0))

    with Tracer() as tracer:
        tracer.patch(Service, "query", "t.query", rid_of=lambda self, rid, delay: rid)
        tracer.patch(Service, "score", "t.score")
        assert asyncio.run(main()) == [1, 2]
    queries = {s.rid: s for s in tracer.spans if s.name == "t.query"}
    scores = {s.rid: s for s in tracer.spans if s.name == "t.score"}
    assert set(queries) == set(scores) == {1, 2}
    for rid in (1, 2):
        assert scores[rid].parent == queries[rid].id
        assert queries[rid].parent is None
    # Request 2 ran while request 1 was in flight; only request 1's own
    # child shortens its self time.
    selfs = self_times(tracer.spans)
    assert queries[1].start < scores[2].start < queries[1].end
    assert selfs[queries[1].id] == pytest.approx(queries[1].duration - scores[1].duration)


def test_marks_record_kinds_in_order_and_unpatch():
    with Marks() as marks:
        marks.patch(_Owner, "inner", "step")
        marks.patch(_Owner, "build", "episode", at="enter")
        marks.mark("start")
        for _ in range(3):
            _Owner().inner(1)
        _Owner.build(1)
        _Owner().inner(1)
        marks.mark("end")
    assert marks.calls["step"] == 4 and marks.calls["episode"] == 1
    assert marks.kinds == ["start", "step", "step", "step", "episode", "step", "end"]
    assert marks.times == sorted(marks.times) and marks.probes == []
    assert "inner" in vars(_Owner) and not hasattr(_Owner.inner, "__wrapped__")


def test_marks_clock_stops_while_the_probe_runs():
    def probe():
        time.sleep(0.02)
        return 0.02

    marks = Marks(probe)
    marks.mark("start")
    marks.mark("end")
    assert marks.probes == [0.02, 0.02]
    # Two probes of 20 ms ran; the gap between the marks holds neither.
    assert marks.times[1] - marks.times[0] < 0.01


def test_marks_every_ticks_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    marks = Marks(lambda: 0.0)
    with marks.every(0.002):
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert marks.kinds.count("tick") >= 5 and len(marks.probes) == len(marks.kinds)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class _Stamped:
    """A hand-built record of marks, as :class:`Marks` would leave it."""

    def __init__(self, times, kinds, probes):
        self.times, self.kinds, self.probes = times, kinds, probes


def test_scaled_gaps_rescale_each_gap_by_the_probes_at_its_ends():
    ref = REFERENCE_PROBE_S
    stamped = _Stamped(
        times=[0.0, 1.0, 3.0, 4.0, 10.0, 11.0],
        kinds=["start", "step", "step", "end", "start", "end"],
        # At reference speed, then twice as slow from the third mark on.
        probes=[ref, ref, 2 * ref, 2 * ref, ref, ref],
    )
    gaps, opens, closes = _scaled_gaps(stamped)
    # Gap 1->3 has one probe at each speed: scaled by 1 / 1.5.
    np.testing.assert_allclose(gaps, [1.0, 2.0 / 1.5, 0.5, 6.0 / 1.5, 1.0])
    assert opens.tolist() == ["start", "step", "step", "end", "start"]
    assert closes.tolist() == ["step", "step", "end", "start", "end"]
    rounds = _rounds(opens, closes)
    assert [(r.start, r.stop) for r in rounds] == [(0, 3), (4, 5)]
    assert gaps[rounds[0]].sum() == pytest.approx(1.0 + 2.0 / 1.5 + 0.5)
