"""Profiling spans: tree shape, activation scoping, near-zero off cost."""

from __future__ import annotations

import pytest

from repro.telemetry import Profiler, timed
from tests.helpers import active_profiler


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        prof = Profiler()
        with prof:
            with timed("outer"):
                with timed("inner"):
                    pass
                with timed("inner"):
                    pass
        outer = prof.root.children["outer"]
        assert outer.count == 1
        inner = outer.children["inner"]
        assert inner.count == 2
        assert inner.total_seconds <= outer.total_seconds
        assert outer.self_seconds == pytest.approx(
            outer.total_seconds - inner.total_seconds)

    def test_siblings_not_merged(self):
        prof = Profiler()
        with prof:
            with timed("a"):
                with timed("leaf"):
                    pass
            with timed("b"):
                with timed("leaf"):
                    pass
        assert "leaf" in prof.root.children["a"].children
        assert "leaf" in prof.root.children["b"].children

    def test_summary_lists_all_spans(self):
        prof = Profiler()
        with prof:
            with timed("solve"):
                pass
        text = prof.summary()
        assert "solve" in text
        assert "calls" in text

    def test_to_dict_is_json_shaped(self):
        prof = Profiler()
        with prof:
            with timed("x"):
                pass
        d = prof.root.to_dict()
        (child,) = d["children"]
        assert child["name"] == "x"
        assert child["count"] == 1


class TestActivation:
    def test_timed_is_noop_without_active_profiler(self):
        assert active_profiler() is None
        with timed("ignored"):
            pass
        assert active_profiler() is None

    def test_activation_scoped_to_with_block(self):
        prof = Profiler()
        with prof:
            assert active_profiler() is prof
        assert active_profiler() is None
        assert prof.empty  # nothing was timed inside

    def test_reentrant_activation_restores_outer(self):
        outer, inner = Profiler(), Profiler()
        with outer:
            with inner:
                with timed("deep"):
                    pass
            assert active_profiler() is outer
            with timed("shallow"):
                pass
        assert "deep" in inner.root.children
        assert "shallow" in outer.root.children
        assert "deep" not in outer.root.children

    def test_exception_inside_span_still_restores(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof:
                with timed("boom"):
                    raise RuntimeError("x")
        assert active_profiler() is None
        assert prof.root.children["boom"].count == 1


class TestErrorAccounting:
    def test_timed_records_span_on_the_exception_path(self):
        prof = Profiler()
        with prof:
            with pytest.raises(RuntimeError):
                with timed("flaky"):
                    raise RuntimeError("boom")
            with timed("flaky"):
                pass
        flaky = prof.root.children["flaky"]
        assert flaky.count == 2  # the failed call is not lost
        assert flaky.errors == 1
        assert flaky.total_seconds > 0.0

    def test_profiler_span_counts_errors(self):
        prof = Profiler()
        with prof:
            with pytest.raises(ValueError):
                with timed("solve"):
                    raise ValueError("bad rho")
        solve = prof.root.children["solve"]
        assert solve.count == 1 and solve.errors == 1

    def test_nested_failure_attributes_to_every_open_span(self):
        prof = Profiler()
        with prof:
            with pytest.raises(RuntimeError):
                with timed("outer"):
                    with timed("inner"):
                        raise RuntimeError("x")
        assert prof.root.children["outer"].errors == 1
        assert prof.root.children["outer"].children["inner"].errors == 1

    def test_timed_double_exit_is_harmless(self):
        prof = Profiler()
        with prof:
            cm = timed("once")
            cm.__enter__()
            cm.__exit__(None, None, None)
            cm.__exit__(None, None, None)  # stray second close: no-op
        once = prof.root.children["once"]
        assert once.count == 1
        assert len(prof._stack) == 1  # back at the root, not underflowed
