"""Single states on plain floats: the paper3 basis, the named three-box
catalog, the chi boundary family in closed form, the state-JSON reader and
the v-vector of one three-box state.

Everything here uses `math` only, so `statmon state` and `statmon v` of a
three-box state answer without importing numpy.  The numpy layers read
these definitions instead of keeping copies: group_core its paper3 order
and box-count check, states its catalog and reader, observables its sign
and angle checks and its chi bases.
"""

from __future__ import annotations

import math

from .errors import CapacityError, ValidationError, as_count
from .region import NAMED_STATES

MAX_BOXES = 7  # 7! = 5040 basis words; hard desk-scale cap
NORM_TOL = 1e-9

# Basis order fixed for n = 3 so that printed amplitudes match the usual
# listing ABC, BAC, CAB, CBA, ACB, BCA.  Every other n uses lexicographic
# order of words.
PAPER3_WORDS = ((0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0))
_INDEX3 = {word: k for k, word in enumerate(PAPER3_WORDS)}
# entry k: the lex-order position of the k-th paper3 word
_FROM_LEX3 = tuple(sorted(PAPER3_WORDS).index(word) for word in PAPER3_WORDS)


def _exchange_pairs(x: int, y: int) -> tuple[tuple[int, int], ...]:
    """Word pairs (lo, hi), lo < hi in ascending lo, that the exchange of
    boxes x and y swaps: it swaps the two labels in every word."""
    partner = [_INDEX3[tuple(y if b == x else x if b == y else b for b in w)] for w in PAPER3_WORDS]
    return tuple((k, m) for k, m in enumerate(partner) if k < m)


# The canonical n = 3 pairs, v = (v_AB, v_BC, v_AC), and their swapped words
PAIR_LABELS3 = ("AB", "BC", "AC")
EXCHANGE_PAIRS3 = tuple(_exchange_pairs(x, y) for x, y in ((0, 1), (1, 2), (0, 2)))

_R6 = 1.0 / math.sqrt(6.0)
_R12 = 1.0 / math.sqrt(12.0)

# Catalog states given word by word, as {word: amplitude}
_CATALOG3 = {
    "sym_plus": dict.fromkeys(("ABC", "BAC", "CAB", "CBA", "ACB", "BCA"), _R6),
    # each word's amplitude carries the sign of its permutation
    "antisym_minus": {"ABC": _R6, "BAC": -_R6, "CAB": _R6, "CBA": -_R6, "ACB": -_R6, "BCA": _R6},
    # (|ABC> + |BAC> - |ACB> - |BCA>) / 2: bosonic AB pair with the most
    # fermionic BC/AC behavior, v = (1, -1/2, -1/2)
    "eq5": {"ABC": 0.5, "BAC": 0.5, "ACB": -0.5, "BCA": -0.5},
    # fermionic AB pair with the most bosonic rest, v = (-1, 1/2, 1/2)
    "eq6": {"ABC": 0.5, "BAC": -0.5, "ACB": 0.5, "BCA": -0.5},
    # component of the nontransitive state, v = (1/2, 1/2, -1)
    "phi_eq23": {"ABC": 0.5, "BAC": 0.5, "CBA": -0.5, "BCA": -0.5},
}


def _paper3(entries: dict) -> tuple[complex, ...]:
    amps = [0j] * 6
    for word, amp in entries.items():
        amps[_INDEX3[tuple("ABC".index(ch) for ch in word)]] = complex(amp)
    return tuple(amps)


_NAMED = {name: _paper3(entries) for name, entries in _CATALOG3.items()}
# sqrt(4/5) |phi_eq23> + sqrt(1/5) |sym_plus>: v = (3/5, 3/5, -3/5)
_NAMED["nontransitive_3_5"] = tuple(
    complex(math.sqrt(4.0 / 5.0) * p.real + s.real / math.sqrt(5.0))
    for p, s in zip(_NAMED["phi_eq23"], _NAMED["sym_plus"])
)

# Rows for sign s = +1 then -1: the (anti)symmetric state |s>, the
# s-eigenvector psi0 = (2, 2s, -1, -s, -s, -1)/sqrt(12) of W2, and s W3 psi0.
CHI_BASES = (
    tuple(tuple(a.real for a in _NAMED[name]) for name in ("sym_plus", "antisym_minus")),
    tuple(tuple(c * _R12 for c in (2, 2 * s, -1, -s, -s, -1)) for s in (1, -1)),
    ((0.0, 0.0, 0.5, -0.5, 0.5, -0.5), (0.0, 0.0, 0.5, 0.5, -0.5, -0.5)),
)


def validate_box_count(n: int) -> int:
    n = as_count(n, "box count")
    if n < 2 or n > MAX_BOXES:
        raise CapacityError(f"box count must be in [2, {MAX_BOXES}], got {n}")
    return n


def parse_sign(value) -> int:
    if value in (+1, -1):
        return int(value)
    if value in ("+", "-"):
        return 1 if value == "+" else -1
    raise ValidationError(f"sign must be +1 or -1, got {value!r}")


def sign_index(s) -> int:
    """Position of a sign on the s1/s2 axes of the chi bases."""
    return 0 if parse_sign(s) > 0 else 1


def validate_angle(theta: float, upper: float, name: str, inclusive: bool = False) -> float:
    theta = float(theta)
    top = upper + 1e-12 if inclusive else upper
    if not math.isfinite(theta) or not (0.0 <= theta < top):
        bracket = "]" if inclusive else ")"
        raise ValidationError(f"{name} must lie in [0, {upper:.6g}{bracket}, got {theta}")
    return theta


def named_amplitudes(name: str, **params) -> tuple[complex, ...]:
    """Paper3-order amplitudes of a catalog state other than chi."""
    if params:
        raise ValidationError(f"state {name!r} takes no parameters")
    if name not in _NAMED:
        raise ValidationError(f"unknown named state {name!r}; choose from {NAMED_STATES}")
    return _NAMED[name]


def chi_amplitudes(theta: float, phi: float, s1, s2) -> tuple[complex, ...]:
    """Paper3-order amplitudes of cos(phi)|s1> + sin(phi)|psi_theta^(s2)>,
    with psi_theta = cos(theta/2) psi0 + sin(theta/2) s2 W3 psi0: one row of
    observables.chi_amplitudes, by its arithmetic."""
    i1, i2 = sign_index(s1), sign_index(s2)
    half = validate_angle(theta, 2.0 * math.pi, "theta") / 2.0
    phi = validate_angle(phi, math.pi / 2.0, "phi", inclusive=True)
    cos_half, sin_half, cos_phi, sin_phi = math.cos(half), math.sin(half), math.cos(phi), math.sin(phi)
    sym, psi0, signed_w3_psi0 = CHI_BASES[0][i1], CHI_BASES[1][i2], CHI_BASES[2][i2]
    return tuple(
        complex(cos_phi * a + sin_phi * (cos_half * p + sin_half * w))
        for a, p, w in zip(sym, psi0, signed_w3_psi0)
    )


def _amplitude(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):  # complex() would read true as 1
        raise TypeError(f"amplitude parts must be numbers, got {[re, im]}")
    return complex(re, im)


def read_state(obj) -> tuple[int, list[complex]]:
    """n and canonical-order amplitudes of a state-JSON object
    {"n": int, "ordering": "paper3"|"lex", "amplitudes": [[re, im], ...]},
    refused as states.PureState refuses them: finite, unit norm to NORM_TOL."""
    try:
        n = validate_box_count(obj["n"])
        kind = obj["ordering"]
        raw = obj["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from None
    if kind not in ("paper3", "lex"):
        raise ValidationError(f"unknown ordering {kind!r}")
    try:
        amps = [_amplitude(re, im) for re, im in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed amplitude list: {exc}") from None
    if kind == "paper3" and n != 3:
        raise ValidationError("ordering 'paper3' is defined only for n = 3")
    dim = math.factorial(n)
    if len(amps) != dim:
        raise ValidationError(f"expected {dim} amplitudes for n = {n}, got {len(amps)}")
    if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps):
        raise ValidationError("amplitudes contain non-finite entries")
    # summed squares, as numpy's norm takes them: an entry near 1e200 reads as
    # norm inf, where math.hypot would give 1e200
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")
    if n == 3 and kind == "lex":
        amps = [amps[k] for k in _FROM_LEX3]
    return n, amps


def state_jsonable(n: int, amplitudes) -> dict:
    """Schema: {"n": int, "ordering": "paper3"|"lex", "amplitudes": [[re, im], ...]},
    the amplitudes in the canonical order of n (paper3 for n = 3)."""
    return {
        "n": n,
        "ordering": "paper3" if n == 3 else "lex",
        "amplitudes": [[float(a.real), float(a.imag)] for a in amplitudes],
    }


def v_of_amplitudes(amps) -> tuple[float, float, float]:
    """(v_AB, v_BC, v_AC) of unit paper3-order amplitudes: per pair, the sum
    over its swapped words k < m, k ascending, of re_k re_m + im_k im_m,
    doubled.  That is observables.exchange_rows' order, so a state gets the
    bits it gets there."""
    v = []
    for pairs in EXCHANGE_PAIRS3:
        total = 0.0
        for k, m in pairs:
            a, b = amps[k], amps[m]
            total += a.real * b.real + a.imag * b.imag
        v.append(2.0 * total)
    return tuple(v)
