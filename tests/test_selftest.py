"""Tier-1 runs every invariant of the selftest registry under its own name."""

import tracemalloc

import numpy as np
import pytest

from statmon import extremal, observables, selftest
from statmon.group_core import Pair
from statmon.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[check.__name__ for check in CHECKS])
def test_invariant(check):
    check()


def test_sampled_minimum_streams_to_the_one_shot_bits():
    constraints = [extremal.Constraint(Pair.parse(p), +1) for p in ("AB", "CD")]
    pairs = [Pair.parse(p) for p in ("AC", "BD")]
    count = 3 * selftest.SAMPLE_BLOCK_ROWS + 77
    basis = extremal.joint_eigenspace_basis(4, constraints)
    rng = np.random.default_rng(99)
    shape = (count, basis.shape[1])
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    one_shot = observables.exchange_rows(z @ basis.T, 4, pairs).min()
    streamed = selftest._sampled_minimum(4, constraints, pairs, count, 99)
    assert np.float64(streamed).tobytes() == one_shot.tobytes()


def test_bosonic_triangle_sampling_memory_budget():
    tracemalloc.start()
    try:
        selftest.bosonic_triangle_sampling()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
