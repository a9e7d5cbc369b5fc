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

from .errors import CapacityError, ConvergenceError, ValidationError, as_array, as_count, as_instance
from .state3 import BOX_LETTERS, PAPER3_WORDS, exchange_mappings, factorial_dim, pair_order, validate_box_count

Word = tuple[int, ...]
DENSE_MAX_BYTES = 2**24  # n! x n! arrays built at once: n = 6 takes 4.1 MB real, 8.3 MB complex; n = 7 0.2 GB real


def check_dense_capacity(n: int, what: str, itemsize: int = 8) -> int:
    """n! when `what`, n! x n! entries of `itemsize` bytes, fits DENSE_MAX_BYTES;
    CapacityError, before anything of that size is allocated, otherwise."""
    dim = factorial_dim(n)
    if dim * dim * itemsize > DENSE_MAX_BYTES:
        raise CapacityError(
            f"{what} for n = {n} would take {dim * dim * itemsize} bytes, over the {DENSE_MAX_BYTES}-byte budget"
        )
    return dim


def box_letter(index: int) -> str:
    """Printable label of a box: 0 -> A, 1 -> B, ..."""
    if not 0 <= index < len(BOX_LETTERS):
        raise ValidationError(f"box index {index} out of range")
    return BOX_LETTERS[index]


def parse_box(label: str) -> int:
    idx = BOX_LETTERS.find(label.upper()) if len(label) == 1 else -1
    if idx < 0:
        raise ValidationError(f"unknown box label {label!r}")
    return idx


@dataclass(frozen=True, order=True)
class Pair:
    """Unordered pair of distinct boxes, stored with x < y."""

    x: int
    y: int

    def __post_init__(self):
        x, y = as_count(self.x, "pair box"), as_count(self.y, "pair box")
        if not 0 <= x < y:
            raise ValidationError(f"pair requires 0 <= x < y, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def of(cls, a: int, b: int) -> "Pair":
        a, b = as_count(a, "pair box"), as_count(b, "pair box")
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


def canonical_pairs(n: int) -> tuple[Pair, ...]:
    """Pair order of weight vectors and v-vectors, state3.pair_order's: for
    n = 3, (AB, BC, AC), as in v = (v_AB, v_BC, v_AC), else lexicographic."""
    return _canonical_pairs(validate_box_count(n))  # checked first: the cache hashes its arguments


@lru_cache(maxsize=None)
def _canonical_pairs(n: int) -> tuple[Pair, ...]:
    return tuple(Pair(a, b) for a, b in pair_order(n))


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
    """Swap the two box labels of `pair` everywhere in the word. The pair must
    name two of the word's boxes 0..len(word)-1: a swap with a box outside
    them gives no word. The word's entries are not checked (validate_word does)."""
    if not isinstance(word, (tuple, list)) or not isinstance(pair, Pair) or pair.y >= len(word):
        raise ValidationError(f"relabel needs a pair of the word's boxes, got {pair!r} for word {word!r}")
    x, y = pair.x, pair.y
    return tuple(y if b == x else (x if b == y else b) for b in word)


class BasisOrdering:
    """Bijection between occupation words and basis indices in [0, n!)."""

    __slots__ = ("n", "kind", "words", "word_array", "_index")

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
        self._index = {word: k for k, word in enumerate(words)}

    @property
    def dim(self) -> int:
        return len(self.words)

    @classmethod
    @lru_cache(maxsize=None)
    def canonical(cls, n: int) -> "BasisOrdering":
        return cls(n, "paper3" if n == 3 else "lex")

    def word_to_index(self, word) -> int:
        return self._index[validate_word(word, self.n)]

    def indices(self, words: np.ndarray) -> np.ndarray:
        """Basis index of each row of an (M, n) array of words, which must
        be permutations of 0..n-1 (not checked)."""
        return np.array([self._index[word] for word in map(tuple, words.tolist())], dtype=np.int64)

    def index_to_word(self, index: int) -> Word:
        if not 0 <= index < self.dim:
            raise ValidationError(f"basis index {index} out of range [0, {self.dim})")
        return self.words[index]

    def __eq__(self, other):
        return isinstance(other, BasisOrdering) and (self.n, self.kind) == (other.n, other.kind)

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
        ordering, mapping = as_instance(ordering, BasisOrdering, "ordering"), as_array(mapping, "mapping")
        identity = np.arange(ordering.dim)
        if mapping.shape != identity.shape or not np.array_equal(np.sort(mapping), identity):
            raise ValidationError("mapping is not a permutation of the basis")
        self.ordering = ordering
        self.mapping = mapping.astype(np.int64)
        self.mapping.setflags(write=False)

    @property
    def n(self) -> int:
        return self.ordering.n

    @property
    def dim(self) -> int:
        return self.ordering.dim

    def matrix(self) -> np.ndarray:
        check_dense_capacity(self.n, "a permutation matrix")
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
        ordering, pair = as_instance(ordering, BasisOrdering, "ordering"), as_instance(pair, Pair, "pair")
        if pair.y >= ordering.n:
            raise ValidationError(f"pair {pair} invalid for n = {ordering.n}")
        swap = np.arange(ordering.n)
        swap[[pair.x, pair.y]] = pair.y, pair.x
        super().__init__(ordering, ordering.indices(swap[ordering.word_array]))
        self.pair = pair
        if np.any(self.mapping == np.arange(self.dim)) or not self.is_involution():
            raise ConvergenceError("exchange mapping must be a fixed-point-free involution")


def exchange_operator(n: int, pair: Pair) -> ExchangeOperator:
    """The exchange operator for one box pair on the canonical basis."""
    return _exchange_operator(validate_box_count(n), as_instance(pair, Pair, "pair"))  # checked before hashing


@lru_cache(maxsize=None)
def _exchange_operator(n: int, pair: Pair) -> ExchangeOperator:
    return ExchangeOperator(BasisOrdering.canonical(n), pair)


exchange_operator.cache_info = _exchange_operator.cache_info  # perfbench/tracer.py reads the hit ratio here


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
    """The exchange table of n boxes from state3's mappings, arrays read-only."""
    pairs = canonical_pairs(n)
    mappings = np.array(exchange_mappings(n))
    identity = np.arange(mappings.shape[1])
    if np.any(mappings == identity) or np.any(np.take_along_axis(mappings, mappings, axis=1) != identity):
        raise ConvergenceError("exchange mapping must be a fixed-point-free involution")
    lo = np.nonzero(mappings > identity)[1].reshape(len(pairs), -1)
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
    weights = np.asarray(weights, dtype=np.float64)
    dim = check_dense_capacity(n, "exchange matrices", 8 * math.prod(weights.shape[:-1]))
    M = np.zeros(weights.shape[:-1] + (dim, dim))
    M[..., exchange_table(n).mappings, np.arange(dim)] = weights[..., None]
    return M


def cyclic_operator() -> PermutationOperator:
    """Three-box cyclic relabeling, defined as the product Π_AB·Π_BC.

    The same operator equals Π_AC·Π_AB and Π_BC·Π_AC, cubes to the
    identity, and acts on the reference word as ABC -> BCA.
    """
    return exchange_operator(3, Pair(0, 1)).compose(exchange_operator(3, Pair(1, 2)))
