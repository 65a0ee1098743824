"""The percentile rule and open-loop accounting."""

import math

import pytest

import stats
import workloads


def test_nearest_rank_percentile_returns_observed_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 75) == 4.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile([7.0], 75) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_failed_job_surfaces_as_infinite_tail():
    values = [1.0] * 30 + [math.inf] * 10
    assert stats.percentile(values, 75) == 1.0
    assert stats.percentile(values + [math.inf], 75) == math.inf


def test_median_even_and_odd():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


@pytest.mark.parametrize("q, count", [(50, 20), (75, 40), (90, 100)])
def test_jobs_for_percentile_is_the_smallest_count(q, count):
    assert stats.jobs_for_percentile(q) == count
    assert stats.samples_beyond(count - 1, q) < 10


def test_service_job_count_keeps_ten_jobs_beyond_p75():
    for seconds in (1, 10, 25, 60):
        count = workloads.job_count(seconds)
        assert count >= math.ceil(workloads.ARRIVAL_RATE * seconds)
        assert stats.samples_beyond(count, workloads.TAIL_PERCENTILE) >= 10


def test_due_times_follow_the_fixed_rate():
    assert stats.due_times(10.0, 2.0, 4) == [10.0, 10.5, 11.0, 11.5]
    with pytest.raises(ValueError):
        stats.due_times(0.0, 0.0, 3)


def test_latency_counts_from_due_not_from_send():
    due = [0.0, 1.0, 2.0]
    # A stalled generator sent job 1 and 2 late; the wait counts.
    finished = [0.5, 4.0, 4.5]
    assert stats.open_loop_latencies(due, finished) == [0.5, 3.0, 2.5]


def test_unfinished_job_gets_the_failed_latency():
    latencies = stats.open_loop_latencies([0.0, 1.0], [0.5, None])
    assert latencies == [0.5, math.inf]


def test_generator_lag_is_never_negative():
    assert stats.generator_lag([0.0, 1.0, 2.0], [0.01, 0.99, 2.5]) == \
        pytest.approx([0.01, 0.0, 0.5])


def _client_with(due, statuses):
    client = workloads.OpenLoopClient("http://unused", [{}] * len(due), 1.0)
    client.due = due
    client.final = statuses
    client.ended = due[-1] + 1.0
    return client


def test_client_latency_of_failed_job_misses_the_limit():
    done = {"state": "completed", "submitted_walltime": 0.1,
            "started_walltime": 0.2, "finished_walltime": 0.7}
    failed = {"state": "failed", "finished_walltime": 1.2}
    client = _client_with([0.0, 1.0, 2.0], [done, failed, None])
    latencies = client.latencies()
    assert latencies[0] == pytest.approx(0.7)
    assert latencies[1] >= workloads.LATENCY_LIMIT_S
    assert latencies[2] >= workloads.LATENCY_LIMIT_S
    waits, runs = client.service_times()
    assert waits == pytest.approx([0.1])
    assert runs == pytest.approx([0.5])
