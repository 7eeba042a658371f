"""Event order of ``DownscalingService.run``'s loop.

Arrivals stream in sorted order beside a heap of completions and
deadlines; the two merge so that at equal timestamps a completion comes
before an arrival, and an arrival before a deadline.  These cases put
two events on one float and read the order off the responses; the
scheduler golden file pins the rest.  Batches are priced by a constant,
so every timestamp below is exact.
"""

from repro.serve import (BatchPolicy, DownscalingService, Request,
                         ServiceTimeModel, TileCache)
from repro.serve.service import HIT_LATENCY_S as HIT_S

SERVICE_S = 0.25


def _service(max_wait_s, max_batch=8):
    return DownscalingService(
        policy=BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
        cache=TileCache(8),
        service_time=ServiceTimeModel(SERVICE_S, {(): 0.0}))


def _timing(r):
    return (r.dispatch_s, r.complete_s, r.replica, r.batch_size, r.cache_hit)


def test_a_completion_fills_the_cache_before_an_arrival_at_its_instant():
    """Request 0 dispatches at once and completes at 0.25, the instant
    request 1 — the same key — arrives: request 1 hits."""
    result = _service(max_wait_s=0.0).run([
        Request(rid=0, arrival_s=0.0, sample=0),
        Request(rid=1, arrival_s=SERVICE_S, sample=0)])
    first, second = result.responses
    assert _timing(first) == (0.0, SERVICE_S, 0, 1, False)
    assert _timing(second) == (SERVICE_S, SERVICE_S + HIT_S, None, 1, True)
    assert result.metrics.counters["serve/batches"] == 1.0


def test_an_arrival_is_queued_before_a_deadline_at_its_instant():
    """Request 0's deadline falls at 0.25, the instant request 1
    arrives: request 1 is queued first, so one batch carries both."""
    result = _service(max_wait_s=SERVICE_S).run([
        Request(rid=0, arrival_s=0.0, sample=0),
        Request(rid=1, arrival_s=SERVICE_S, sample=1)])
    for r in result.responses:
        assert _timing(r) == (SERVICE_S, 2 * SERVICE_S, 0, 2, False)
    assert result.metrics.counters["serve/batches"] == 1.0


def test_arrivals_left_after_the_heap_drains_are_served():
    """After request 0's completion the heap is empty and nothing is
    queued, with only arrivals left: the loop waits for them — a miss
    that queues again, then a hit — instead of ending the run."""
    result = _service(max_wait_s=0.02).run([
        Request(rid=0, arrival_s=0.0, sample=0),
        Request(rid=1, arrival_s=5.0, sample=1),
        Request(rid=2, arrival_s=9.0, sample=0)])
    assert [_timing(r) for r in result.responses] == [
        (0.02, 0.02 + SERVICE_S, 0, 1, False),
        (5.0 + 0.02, 5.0 + 0.02 + SERVICE_S, 0, 1, False),
        (9.0, 9.0 + HIT_S, None, 1, True)]
    assert result.duration_s == 9.0 + HIT_S
    assert result.metrics.counters["serve/batches"] == 2.0
    assert result.metrics.histograms["serve/queue_depth"].count == 3
