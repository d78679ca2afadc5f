"""The run statistics: max_error over a fixed set of cycles."""

import pytest

from harness import Check, Tally, fixed_set_error


def tally_of(cycles):
    """A tally of whole cycles, each a list of (seconds, ok, error)."""
    tally = Tally()
    for ops in cycles:
        for seconds, ok, error in ops:
            tally.record("op", seconds, Check(ok, error))
        tally.cycle_ends.append(tally.attempted)
    return tally


def test_error_is_taken_over_the_first_cycles_only():
    first = [[(0.1, True, 1e-13), (0.1, True, None)], [(0.1, True, 3e-13)]]
    short = tally_of(first)
    longer = tally_of(first + [[(0.1, True, 9e-13)], [(0.1, True, 7e-13)]])
    assert fixed_set_error(short, 2) == pytest.approx(2e-13)
    assert fixed_set_error(longer, 2) == fixed_set_error(short, 2)


def test_error_is_zero_when_nothing_was_measured():
    assert fixed_set_error(tally_of([[(0.1, False, None)]]), 1) == 0.0

