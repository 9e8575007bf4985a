"""The instrumentation seam: one timestamp pair feeds metrics and spans.

``block_start`` / ``block_finish`` (:mod:`repro.obs.causal`) are the one
way an instrumented block is timed.  Each sink combination is pinned here:
both off records nothing, each sink alone records exactly one thing, and
with both on the histogram observation equals the span duration bit for
bit — the proof that a single ``(t0, t1)`` pair fed both.
"""

import pytest

from repro import obs
from repro.core.engine import QueryEngine
from repro.core.queries import linear_query
from repro.core.swat import Swat
from repro.obs.causal import CausalTracer, block_finish, block_start


@pytest.fixture
def quiet_registry():
    """A fresh registry with metrics left off (the default)."""
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


@pytest.fixture
def causal():
    """A process-wide causal tracer for objects built inside the test."""
    tracer = obs.enable_causal()
    yield tracer
    obs.disable_causal()


def _only(tracer, name):
    spans = [s for s in tracer.spans if s.name == name]
    assert len(spans) == 1, spans
    return spans[0]


class TestSeamSinks:
    def test_both_off_records_nothing(self, quiet_registry):
        assert not obs.metrics.ENABLED
        assert block_start(None) is None
        tree = Swat(16, k=4)
        assert tree.causal is None
        tree.extend([float(v) for v in range(40)])
        tree.update(1.0)
        tree.answer(linear_query(4))
        QueryEngine(tree).answer_batch([linear_query(4)])
        assert len(quiet_registry) == 0

    def test_metrics_only_observes_once(self, obs_registry):
        t0 = block_start(None)
        assert t0 is not None
        block_finish(t0, "seam.latency", None, "seam.block", site="test")
        hist = obs_registry.histogram("seam.latency")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_causal_only_records_one_span_from_t0(self, quiet_registry):
        tracer = CausalTracer()
        t0 = block_start(tracer)
        assert t0 is not None
        block_finish(t0, "seam.latency", tracer, "seam.block", site="test", n=3)
        (span,) = tracer.spans
        assert span.name == "seam.block" and span.site == "test"
        assert span.start_at == t0
        assert span.finished and span.end_at >= t0
        assert span.annotations == {"n": 3}
        assert len(quiet_registry) == 0

    def test_open_span_finishes_at_the_same_instant(self, obs_registry):
        tracer = CausalTracer()
        t0 = block_start(tracer)
        assert t0 is not None
        root, ctx = obs.open_span(tracer, "seam.root", at=t0, site="test")
        assert root is not None and ctx == root.context
        block_finish(t0, "seam.latency", tracer, root, done=True)
        assert obs_registry.histogram("seam.latency").sum == root.duration
        assert root.annotations == {"done": True}

    def test_open_span_is_a_noop_untraced(self):
        assert obs.open_span(None, "seam.root", at=0.0) == (None, None)


class TestOnePairFeedsBothSinks:
    """With metrics and tracing on, each instrumented block's histogram sum
    equals its span duration exactly."""

    def test_swat_update(self, obs_registry, causal):
        tree = Swat(16, k=4)
        tree.update(1.0)
        span = _only(causal, "swat.update")
        hist = obs_registry.histogram("swat.maintenance.latency")
        assert hist.count == 1
        assert hist.sum == span.duration

    def test_swat_extend(self, obs_registry, causal):
        tree = Swat(16, k=4)
        tree.extend([float(v) for v in range(40)])
        span = _only(causal, "swat.extend")
        hist = obs_registry.histogram("swat.batch.latency")
        assert hist.count == 1
        assert hist.sum == span.duration

    def test_swat_answer(self, obs_registry, causal):
        tree = Swat(16, k=4)
        tree.extend([float(v) for v in range(40)])
        tree.answer(linear_query(4))
        span = _only(causal, "swat.answer")
        hist = obs_registry.histogram("swat.query.latency")
        assert hist.count == 1
        assert hist.sum == span.duration

    def test_engine_batch_and_compile(self, obs_registry, causal):
        tree = Swat(16, k=4)
        tree.extend([float(v) for v in range(40)])
        QueryEngine(tree).answer_batch([linear_query(4), linear_query(8)])
        batch = _only(causal, "engine.answer_batch")
        assert obs_registry.histogram("query.batch.latency").sum == batch.duration
        compiles = [s for s in causal.spans if s.name == "engine.plan_compile"]
        hist = obs_registry.histogram("query.plan_compile.latency")
        assert hist.count == len(compiles) == 2
        assert all(s.parent_id == batch.span_id for s in compiles)
        assert hist.sum == sum(s.duration for s in compiles)
