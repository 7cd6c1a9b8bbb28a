"""Tests for the online speed-selection policies."""

import pytest

from repro.runtime.policies import (
    GreedySlackPolicy,
    NoReclamationPolicy,
    ProportionalSlackPolicy,
    SpeedRequest,
    get_slack_policy,
)


def make_request(**overrides):
    defaults = dict(time_now=2.0, end_time=10.0, wc_remaining=4000.0,
                    planned_frequency=800.0, job_wc_remaining=6000.0, job_deadline=20.0)
    defaults.update(overrides)
    return SpeedRequest(**defaults)


class TestGreedy:
    def test_stretches_to_end_time(self, processor):
        frequency = GreedySlackPolicy().frequency(processor, make_request())
        assert frequency == pytest.approx(4000.0 / 8.0)

    def test_clips_to_fmax_when_late(self, processor):
        frequency = GreedySlackPolicy().frequency(processor, make_request(time_now=9.99, wc_remaining=5000))
        assert frequency == processor.fmax

    def test_past_end_time_runs_at_fmax(self, processor):
        frequency = GreedySlackPolicy().frequency(processor, make_request(time_now=11.0))
        assert frequency == processor.fmax

    def test_zero_remaining_runs_at_fmin(self, processor):
        frequency = GreedySlackPolicy().frequency(processor, make_request(wc_remaining=0.0))
        assert frequency == processor.fmin

    def test_never_below_fmin(self, processor):
        frequency = GreedySlackPolicy().frequency(processor, make_request(wc_remaining=1e-3))
        assert frequency >= processor.fmin

    def test_earlier_start_means_lower_frequency(self, processor):
        """More inherited slack (earlier start) always lowers or keeps the speed."""
        early = GreedySlackPolicy().frequency(processor, make_request(time_now=1.0))
        late = GreedySlackPolicy().frequency(processor, make_request(time_now=5.0))
        assert early <= late


class TestNoReclamation:
    def test_returns_planned_frequency(self, processor):
        frequency = NoReclamationPolicy().frequency(processor, make_request())
        assert frequency == pytest.approx(800.0)

    def test_clipped_to_processor_range(self, processor):
        frequency = NoReclamationPolicy().frequency(processor, make_request(planned_frequency=1e6))
        assert frequency == processor.fmax


class TestProportional:
    def test_uses_job_level_remaining(self, processor):
        frequency = ProportionalSlackPolicy().frequency(processor, make_request())
        assert frequency == pytest.approx(6000.0 / 18.0)

    def test_past_deadline_runs_at_fmax(self, processor):
        frequency = ProportionalSlackPolicy().frequency(processor, make_request(time_now=25.0))
        assert frequency == processor.fmax

    def test_zero_job_remaining(self, processor):
        frequency = ProportionalSlackPolicy().frequency(processor, make_request(job_wc_remaining=0.0))
        assert frequency == processor.fmin


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("greedy", GreedySlackPolicy),
        ("static", NoReclamationPolicy),
        ("proportional", ProportionalSlackPolicy),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(get_slack_policy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_slack_policy("oracle")
