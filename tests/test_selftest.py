"""Tier-1 runs every invariant of the selftest registry under its own name."""

import pytest

from statmon.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[check.__name__ for check in CHECKS])
def test_invariant(check):
    check()
