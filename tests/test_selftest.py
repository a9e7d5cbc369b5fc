"""Tier-1 runs every invariant of the selftest registry under its own name."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from hypothesis.extra.numpy import arrays

from statmon import extremal, monogamy, observables, selftest, states
from statmon.group_core import Pair, canonical_pairs, exchange_operator
from statmon.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[check.__name__ for check in CHECKS])
def test_invariant(check):
    check()


def test_sampled_minimum_streams_to_the_one_shot_bits():
    constraints = [extremal.Constraint(Pair.parse(p), +1) for p in ("AB", "CD")]
    pairs = [Pair.parse(p) for p in ("AC", "BD")]
    count = 3 * selftest.SAMPLE_BLOCK_ROWS + 77
    basis = extremal.joint_eigenspace_basis(4, constraints)
    forms = [basis.T @ basis[exchange_operator(4, p).mapping] for p in pairs]
    rng = np.random.default_rng(99)
    shape = (count, basis.shape[1])
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    one_shot = selftest._lowest_ratio(x, y, forms)
    streamed = selftest._sampled_minimum(4, constraints, pairs, count, 99)
    assert np.float64(streamed).tobytes() == np.float64(one_shot).tobytes()


def _expanded_minimum(n, constraints, pairs, count, seed):
    """The sampler's minimum the long way: normalize each draw, expand it to
    n! amplitudes and run the batched kernel."""
    basis = extremal.joint_eigenspace_basis(n, constraints)
    rng = np.random.default_rng(seed)
    shape = (count, basis.shape[1])
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return observables.exchange_rows(z @ basis.T, n, pairs).min()


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("fixed", [(), ("AB",), ("AB", "AC", "BC")])
def test_compressed_sampler_matches_the_expanded_formula(monkeypatch, n, fixed):
    monkeypatch.setattr(selftest, "SAMPLE_BLOCK_ROWS", 16)
    constraints = [extremal.Constraint(Pair.parse(p), +1) for p in fixed]
    pairs = canonical_pairs(n)
    count = 2 * 16 + 5
    compressed = selftest._sampled_minimum(n, constraints, pairs, count, 7 + n)
    assert abs(compressed - _expanded_minimum(n, constraints, pairs, count, 7 + n)) <= 1e-14


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bosonic_triangle_sampling_memory_budget():
    assert _traced_peak(selftest.bosonic_triangle_sampling) < 16 * 2**20


def test_bosonic_triangle_sampling_holds_little_beyond_its_real_parts():
    # the 10^5 x 4 real parts take 3.05 MiB; one block's pair products and
    # imaginary parts add about 2 MiB
    assert _traced_peak(selftest.bosonic_triangle_sampling) < 6 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    V=arrays(np.float64, st_h.tuples(st_h.integers(1, 40), st_h.just(3)), elements=st_h.floats(-1.0, 1.0)),
    grid=st_h.integers(1, 100),
)
def test_stacked_margins_match_the_public_checks_row_by_row(V, grid):
    sqrt_margins = monogamy._margins_of_v(V)
    theta_margins = monogamy._theta_margins(V, grid)
    for v, sqrt_margin, theta_margin in zip(V, sqrt_margins, theta_margins):
        assert abs(sqrt_margin - monogamy.check_sqrt(v)) <= 1e-15
        assert abs(theta_margin - monogamy.theta_family_margin(v, grid)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st_h.integers(0, 2**32 - 1), count=st_h.integers(1, 30))
def test_dense_expectations_match_the_matrix_branch_row_by_row(seed, count):
    matrices = observables.w_frame().matrices()
    amps = states.random_amplitudes(3, count, np.random.default_rng(seed))
    dense = selftest._dense_expectations(amps, matrices)
    assert dense.shape == (count, len(matrices))
    for row, values in zip(amps, dense):
        state = states.PureState(3, row)
        for M, value in zip(matrices, values):
            assert abs(value - observables.expectation(state, M)) <= 1e-15


def test_selftest_eigensolves_stay_at_dimension_25_or_less(monkeypatch):
    # LAPACK's divide-and-conquer eigh, which starts threaded BLAS, runs from
    # dimension 26; the selftest keeps to the small path
    dims = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        solve = getattr(np.linalg, name)

        def traced(a, *args, solve=solve, **kwargs):
            dims.append(np.shape(a)[-1])
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, traced)
    results = selftest.run_selftest()
    assert all(result.passed for result in results)
    assert dims and max(dims) <= 25, max(dims)
