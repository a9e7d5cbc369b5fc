import tracemalloc

import numpy as np
import pytest

from statmon import group_core as gc
from statmon import selftest, state3
from statmon.extremal import Constraint, Objective, constraint_projector
from statmon.states import PureState
from statmon.errors import CapacityError, ValidationError


def test_paper3_word_indices():
    ordering = gc.BasisOrdering.canonical(3)
    assert ordering.kind == "paper3"
    assert ordering.word_to_index(gc.parse_word("ABC")) == 0
    assert ordering.word_to_index(gc.parse_word("BAC")) == 1
    assert ordering.word_to_index(gc.parse_word("CAB")) == 2
    assert ordering.word_to_index(gc.parse_word("CBA")) == 3
    assert ordering.word_to_index(gc.parse_word("ACB")) == 4
    assert ordering.word_to_index(gc.parse_word("BCA")) == 5


def test_word_index_round_trip():
    for n in (2, 3, 4):
        ordering = gc.BasisOrdering.canonical(n)
        for i in range(ordering.dim):
            assert ordering.word_to_index(ordering.index_to_word(i)) == i


def test_lex_order_n2():
    ordering = gc.BasisOrdering.canonical(2)
    assert ordering.kind == "lex"
    assert ordering.word_to_index((0, 1)) == 0
    assert ordering.word_to_index((1, 0)) == 1


def test_invalid_word_rejected():
    ordering = gc.BasisOrdering.canonical(3)
    with pytest.raises(ValidationError):
        ordering.word_to_index((0, 0, 1))
    with pytest.raises(ValidationError):
        ordering.word_to_index((0, 1))


def test_relabel_examples():
    ab = gc.Pair.parse("AB")
    bc = gc.Pair.parse("BC")
    assert gc.word_label(gc.relabel(gc.parse_word("ABC"), ab)) == "BAC"
    assert gc.word_label(gc.relabel(gc.parse_word("CAB"), bc)) == "BAC"


def test_relabel_involution():
    for n in (2, 3, 4):
        ordering = gc.BasisOrdering.canonical(n)
        for pair in gc.canonical_pairs(n):
            for word in ordering.words:
                assert gc.relabel(gc.relabel(word, pair), pair) == word


def test_exchange_operator_n3_swaps_first_two_words():
    op = gc.exchange_operator(3, gc.Pair.parse("AB"))
    assert op.mapping[0] == 1 and op.mapping[1] == 0


def test_exchange_operator_n2():
    op = gc.exchange_operator(2, gc.Pair(0, 1))
    assert list(op.mapping) == [1, 0]


@pytest.mark.parametrize("n", range(2, 8))
def test_exchange_mappings_match_per_word_relabeling(n):
    ordering = gc.BasisOrdering.canonical(n)
    for pair in gc.canonical_pairs(n):
        expected = [ordering.word_to_index(gc.relabel(w, pair)) for w in ordering.words]
        assert gc.exchange_operator(n, pair).mapping.tolist() == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_exchange_matrix_is_the_weighted_sum_of_exchange_matrices(n):
    weights = np.random.default_rng(n).uniform(-1.0, 1.0, size=len(gc.canonical_pairs(n)))
    expected = sum(c * op.matrix() for c, op in zip(weights, gc.all_exchange_operators(n)))
    assert gc.exchange_matrix(n, weights).tobytes() == expected.tobytes()
    stack = gc.exchange_matrix(n, [weights, weights[::-1]])
    assert stack.tobytes() == expected.tobytes() + gc.exchange_matrix(n, weights[::-1]).tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_exchange_table_rows_are_the_operator_mappings(n):
    table = gc.exchange_table(n)
    assert table is gc.exchange_table(n)
    for p, pair in enumerate(gc.canonical_pairs(n)):
        mapping = gc.exchange_operator(n, pair).mapping
        assert table.row[pair] == p
        assert np.array_equal(table.mappings[p], mapping)
        assert np.array_equal(table.lo[p], np.flatnonzero(mapping > np.arange(mapping.size)))
        assert np.array_equal(table.hi[p], mapping[table.lo[p]])
    for arr in (table.mappings, table.lo, table.hi):
        assert not arr.flags.writeable


def test_indices_count_permutations_in_order():
    ordering = gc.BasisOrdering(5)
    assert ordering.indices(ordering.word_array).tolist() == list(range(120))
    paper3 = gc.BasisOrdering.canonical(3)
    assert paper3.indices(paper3.word_array).tolist() == list(range(6))


@pytest.mark.parametrize("n", range(2, 8))
def test_an_ordering_of_n_boxes_is_the_one_canonical_basis(n):
    ordering = gc.BasisOrdering(n)
    assert ordering.words == state3.canonical_words(n)
    assert ordering == gc.BasisOrdering.canonical(n) and hash(ordering) == hash(gc.BasisOrdering.canonical(n))
    assert ordering.kind == ("paper3" if n == 3 else "lex")


def test_permutation_operator_rejects_non_permutations():
    ordering = gc.BasisOrdering.canonical(3)
    for mapping in ([0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 6]):
        with pytest.raises(ValidationError):
            gc.PermutationOperator(ordering, mapping)


# These run the selftest check that asserts each invariant.
def test_exchange_operators_fixed_point_free():
    selftest.exchange_involutions()


def test_exchange_operator_involution_and_symmetry():
    selftest.exchange_involutions()


def test_cyclic_operator_identities_exact():
    selftest.cyclic_identities()


def test_cyclic_operator_action_on_reference_word():
    selftest.cyclic_identities()


def test_capacity_limits():
    with pytest.raises(CapacityError):
        gc.BasisOrdering.canonical(8)
    with pytest.raises(CapacityError):
        gc.BasisOrdering.canonical(1)


def _dense_builds(n):
    """Every n! x n! build, as a call with its operands made beforehand."""
    e0 = np.zeros(gc.factorial_dim(n))
    e0[0] = 1.0
    constraints = [Constraint(gc.Pair.parse(p), +1) for p in ("AB", "BC", "CD")]
    return {
        "objective-matrix": Objective.from_pairs(n, {"AB": 1}).matrix,
        "constraint-projector": lambda: constraint_projector(n, constraints),
        "exchange-operator-matrix": gc.exchange_operator(n, gc.Pair(0, 1)).matrix,
        "pure-state-projector": PureState(n, e0).projector,
    }


@pytest.mark.parametrize("build", sorted(_dense_builds(3)))
def test_dense_builds_are_refused_before_allocating_at_seven_boxes(build):
    # without the gate these peak at 195-406 MB
    call = _dense_builds(7)[build]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="over the 16777216-byte budget"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("build", sorted(_dense_builds(3)))
def test_dense_builds_of_six_boxes_stay_within_the_budget(build):
    assert _dense_builds(6)[build]().shape == (720, 720)


def test_pair_parsing_and_order():
    assert gc.Pair.parse("ba") == gc.Pair(0, 1)
    assert str(gc.Pair(0, 2)) == "AC"
    with pytest.raises(ValidationError):
        gc.Pair.parse("AA")
    with pytest.raises(ValidationError):
        gc.Pair(1, 1)


def test_canonical_pair_order():
    assert [str(p) for p in gc.canonical_pairs(3)] == ["AB", "BC", "AC"]
    assert [str(p) for p in gc.canonical_pairs(4)] == ["AB", "AC", "AD", "BC", "BD", "CD"]
