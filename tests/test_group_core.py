import pytest

from statmon import group_core as gc
from statmon import selftest
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
