"""The percentile rule and its 10-sample floor."""

import pytest

from perfbench.core import nearest_rank, tail_percentile


def test_nearest_rank_on_one_to_hundred():
    samples = list(range(100, 0, -1))  # unsorted input
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90  # exact rank, no float drift
    assert nearest_rank(samples, 100) == 100


def test_nearest_rank_small_sets():
    assert nearest_rank([7.0], 50) == 7.0
    assert nearest_rank([1, 2, 3], 50) == 2
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(1, 100)), 90)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 50, 90)


def test_whole_cycles_keep_the_same_cell_at_p90():
    """Repeating a cycle k times does not move which cell p90 lands on."""
    cycle = [float(i) for i in range(1, 99)]  # 98 distinct cells
    for k in (2, 3, 4, 7):
        assert tail_percentile(cycle * k, 90) == nearest_rank(cycle, 90) == 89.0
