"""Occupation words, box relabelings and exchange operators for n labeled boxes.

The state space is spanned by "occupation words": assignments of n
distinguishable particles to n distinct boxes, one particle per box, so a
word is a permutation of the box labels.  Exchange operators swap two box
labels in every word; they are stored as index permutations of the basis,
which keeps every group identity exact in integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConvergenceError, ValidationError, as_count

MAX_BOXES = 7  # 7! = 5040 basis words; hard desk-scale cap

_LETTERS = "ABCDEFG"

# Basis order fixed for n = 3 so that printed amplitudes match the usual
# listing ABC, BAC, CAB, CBA, ACB, BCA.  Every other n uses lexicographic
# order of words.
PAPER3_WORDS = ((0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0))

Word = tuple[int, ...]


def validate_box_count(n: int) -> int:
    n = as_count(n, "box count")
    if n < 2 or n > MAX_BOXES:
        raise CapacityError(f"box count must be in [2, {MAX_BOXES}], got {n}")
    return n


def box_letter(index: int) -> str:
    """Printable label of a box: 0 -> A, 1 -> B, ..."""
    if not 0 <= index < MAX_BOXES:
        raise ValidationError(f"box index {index} out of range")
    return _LETTERS[index]


def parse_box(label: str) -> int:
    idx = _LETTERS.find(label.upper()) if len(label) == 1 else -1
    if idx < 0:
        raise ValidationError(f"unknown box label {label!r}")
    return idx


@dataclass(frozen=True, order=True)
class Pair:
    """Unordered pair of distinct boxes, stored with x < y."""

    x: int
    y: int

    def __post_init__(self):
        if not (0 <= self.x < self.y):
            raise ValidationError(f"pair requires 0 <= x < y, got ({self.x}, {self.y})")

    @classmethod
    def of(cls, a: int, b: int) -> "Pair":
        if a == b:
            raise ValidationError(f"pair boxes must differ, got ({a}, {b})")
        return cls(min(a, b), max(a, b))

    @classmethod
    def parse(cls, text: str) -> "Pair":
        if not isinstance(text, str) or len(text) != 2:
            raise ValidationError(f"pair label must be two letters, got {text!r}")
        return cls.of(parse_box(text[0]), parse_box(text[1]))

    def label(self) -> str:
        return box_letter(self.x) + box_letter(self.y)

    def __str__(self) -> str:
        return self.label()


@lru_cache(maxsize=None)
def canonical_pairs(n: int) -> tuple[Pair, ...]:
    """Pair order used for weight vectors and v-vectors.

    For n = 3 the order is (AB, BC, AC), matching the conventional vector
    v = (v_AB, v_BC, v_AC); other n use lexicographic order.
    """
    validate_box_count(n)
    if n == 3:
        return (Pair(0, 1), Pair(1, 2), Pair(0, 2))
    return tuple(Pair(a, b) for a, b in itertools.combinations(range(n), 2))


def validate_word(word, n: int) -> Word:
    w = tuple(int(b) for b in word)
    if len(w) != n or sorted(w) != list(range(n)):
        raise ValidationError(
            f"word {w} is not a permutation of boxes 0..{n - 1} "
            "(each box must hold exactly one particle)"
        )
    return w


def word_label(word: Word) -> str:
    return "".join(box_letter(b) for b in word)


def parse_word(text: str) -> Word:
    return tuple(parse_box(ch) for ch in text)


def relabel(word: Word, pair: Pair) -> Word:
    """Swap the two box labels of `pair` everywhere in the word."""
    x, y = pair.x, pair.y
    return tuple(y if b == x else (x if b == y else b) for b in word)


def lex_rank(words: np.ndarray) -> np.ndarray:
    """Position of each row, a permutation of 0..n-1, in the lexicographic
    order of all n! permutations: its Lehmer code c_i = #{j > i : w_j < w_i}
    read as the factorial-base number sum_i c_i (n-1-i)!."""
    n = words.shape[1]
    rank = np.zeros(len(words), dtype=np.int64)
    for i in range(n):
        rank = rank * (n - i) + (words[:, i + 1:] < words[:, i:i + 1]).sum(axis=1)
    return rank


class BasisOrdering:
    """Bijection between occupation words and basis indices in [0, n!)."""

    __slots__ = ("n", "kind", "words", "word_array", "_from_lex")

    def __init__(self, n: int, kind: str):
        n = validate_box_count(n)
        if kind == "paper3":
            if n != 3:
                raise ValidationError("ordering 'paper3' is defined only for n = 3")
            words = PAPER3_WORDS
        elif kind == "lex":
            words = tuple(itertools.permutations(range(n)))
        else:
            raise ValidationError(f"unknown ordering kind {kind!r}")
        self.n = n
        self.kind = kind
        self.words = words
        self.word_array = np.array(words, dtype=np.int64)
        self.word_array.setflags(write=False)
        self._from_lex = np.empty(len(words), dtype=np.int64)
        self._from_lex[lex_rank(self.word_array)] = np.arange(len(words))

    @property
    def dim(self) -> int:
        return len(self.words)

    @classmethod
    @lru_cache(maxsize=None)
    def canonical(cls, n: int) -> "BasisOrdering":
        return cls(n, "paper3" if n == 3 else "lex")

    def word_to_index(self, word) -> int:
        w = validate_word(word, self.n)
        return int(self.indices(np.array([w]))[0])

    def indices(self, words: np.ndarray) -> np.ndarray:
        """Basis index of each row of an (M, n) array of words, which must
        be permutations of 0..n-1 (not checked)."""
        return self._from_lex[lex_rank(words)]

    def index_to_word(self, index: int) -> Word:
        if not 0 <= index < self.dim:
            raise ValidationError(f"basis index {index} out of range [0, {self.dim})")
        return self.words[index]

    def __eq__(self, other):
        return (
            isinstance(other, BasisOrdering)
            and self.n == other.n
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((self.n, self.kind))

    def __repr__(self):
        return f"BasisOrdering(n={self.n}, kind={self.kind!r})"


class PermutationOperator:
    """Unitary operator permuting basis words.

    `mapping[i] = j` means the operator sends basis vector i to basis
    vector j; the dense matrix has a 1 at (j, i).
    """

    __slots__ = ("ordering", "mapping")

    def __init__(self, ordering: BasisOrdering, mapping):
        mapping = np.asarray(mapping, dtype=np.int64)
        identity = np.arange(ordering.dim)
        if mapping.shape != identity.shape or not np.array_equal(np.sort(mapping), identity):
            raise ValidationError("mapping is not a permutation of the basis")
        self.ordering = ordering
        self.mapping = mapping
        self.mapping.setflags(write=False)

    @property
    def n(self) -> int:
        return self.ordering.n

    @property
    def dim(self) -> int:
        return self.ordering.dim

    def matrix(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim))
        M[self.mapping, np.arange(self.dim)] = 1.0
        return M

    def compose(self, other: "PermutationOperator") -> "PermutationOperator":
        """Operator product self∘other (`other` acts first)."""
        if self.ordering != other.ordering:
            raise ValidationError("operators live on different bases")
        return PermutationOperator(self.ordering, self.mapping[other.mapping])

    def inverse(self) -> "PermutationOperator":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.dim)
        return PermutationOperator(self.ordering, inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mapping, np.arange(self.dim)))

    def is_involution(self) -> bool:
        return bool(np.array_equal(self.mapping[self.mapping], np.arange(self.dim)))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths of the basis permutation."""
        seen = np.zeros(self.dim, dtype=bool)
        lengths = []
        for start in range(self.dim):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                length += 1
                j = self.mapping[j]
            lengths.append(length)
        return tuple(sorted(lengths))

    def __eq__(self, other):
        return (
            isinstance(other, PermutationOperator)
            and self.ordering == other.ordering
            and np.array_equal(self.mapping, other.mapping)
        )

    def __hash__(self):
        return hash((self.ordering, self.mapping.tobytes()))


class ExchangeOperator(PermutationOperator):
    """Involution induced by swapping two box labels in every word.

    Every word contains both labels, so the involution has no fixed basis
    points and its matrix is real, symmetric and orthogonal.
    """

    __slots__ = ("pair",)

    def __init__(self, ordering: BasisOrdering, pair: Pair):
        if pair.y >= ordering.n:
            raise ValidationError(f"pair {pair} invalid for n = {ordering.n}")
        swap = np.arange(ordering.n)
        swap[[pair.x, pair.y]] = pair.y, pair.x
        super().__init__(ordering, ordering.indices(swap[ordering.word_array]))
        self.pair = pair
        if np.any(self.mapping == np.arange(self.dim)) or not self.is_involution():
            raise ConvergenceError("exchange mapping must be a fixed-point-free involution")


@lru_cache(maxsize=None)
def exchange_operator(n: int, pair: Pair) -> ExchangeOperator:
    """The exchange operator for one box pair on the canonical basis."""
    return ExchangeOperator(BasisOrdering.canonical(n), pair)


def all_exchange_operators(n: int) -> tuple[ExchangeOperator, ...]:
    """Exchange operators for every canonical pair, in canonical pair order."""
    return tuple(exchange_operator(n, p) for p in canonical_pairs(n))


@dataclass(frozen=True)
class ExchangeTable:
    """Row p, for the p-th canonical pair: the exchange's basis mapping
    `mappings[p]`, which swaps word lo[p, j] < hi[p, j] with word hi[p, j]
    and no other. `row` maps each pair to its row."""

    mappings: np.ndarray  # (P, n!)
    lo: np.ndarray  # (P, n!/2)
    hi: np.ndarray  # (P, n!/2)
    row: dict


@lru_cache(maxsize=None)
def exchange_table(n: int) -> ExchangeTable:
    """The exchange table of n boxes, arrays read-only, from the validated operators."""
    pairs = canonical_pairs(n)
    mappings = np.array([exchange_operator(n, p).mapping for p in pairs])
    lo = np.nonzero(mappings > np.arange(mappings.shape[1]))[1].reshape(len(pairs), -1)
    hi = np.take_along_axis(mappings, lo, axis=1)
    for arr in (mappings, lo, hi):
        arr.setflags(write=False)
    return ExchangeTable(mappings, lo, hi, {p: k for k, p in enumerate(pairs)})


def exchange_matrix(n: int, weights) -> np.ndarray:
    """Dense matrix of sum_XY c_XY Pi_XY, one weight per canonical pair in
    canonical pair order (not checked); a stack of weight rows gives the
    stack of their matrices.

    Distinct exchanges send a word to distinct words, so every entry is one
    weight or zero and a single scatter builds the sum.
    """
    dim = factorial_dim(n)
    weights = np.asarray(weights, dtype=np.float64)
    M = np.zeros(weights.shape[:-1] + (dim, dim))
    M[..., exchange_table(n).mappings, np.arange(dim)] = weights[..., None]
    return M


def cyclic_operator() -> PermutationOperator:
    """Three-box cyclic relabeling, defined as the product Π_AB·Π_BC.

    The same operator equals Π_AC·Π_AB and Π_BC·Π_AC, cubes to the
    identity, and acts on the reference word as ABC -> BCA.
    """
    return exchange_operator(3, Pair(0, 1)).compose(exchange_operator(3, Pair(1, 2)))


def factorial_dim(n: int) -> int:
    return math.factorial(validate_box_count(n))
