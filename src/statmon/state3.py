"""Single states on plain floats: the words, pair order and exchanges of
every box count, the named three-box catalog, the chi boundary family in
closed form, the boundary mesh and its CSV, the state-JSON reader and
amplitude check, the Gaussian draw and the v-vector of one state.

Everything here uses `math` only, so `statmon state`, `statmon v` and
`statmon surface` answer without importing numpy.  The numpy layers read
these definitions instead of keeping copies: group_core its paper3 order,
pair order, exchange mappings, box-count check and n!, states its catalog,
reader, amplitude check and draw, observables its sign and angle checks and
its chi state, monogamy its mesh rows, CSV writer, draw and exchange pairs.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from .errors import CapacityError, ConvergenceError, ValidationError, as_count, as_real, holds_boolean
from .region import NAMED_STATES

MAX_BOXES = 7  # 7! = 5040 basis words; hard desk-scale cap
BOX_LETTERS = "ABCDEFG"  # printable label of box k
NORM_TOL = 1e-9
BOUNDARY_TOL = 1e-9
# The rows stream to the CSV, so memory does not grow with the mesh: at the
# cap, `statmon surface --theta-steps 1024 --phi-steps 256` takes 3.4-3.9 s
# and peaks at about 26 MB resident (2-vCPU VM, Python 3.11).
MESH_MAX_ROWS = 2**20
CSV_BLOCK_ROWS = 2**14  # rows formatted per write: about 1.3 MB of CSV text
CHI_PARAMS = ("theta", "phi", "s1", "s2")

# Basis order fixed for n = 3 so that printed amplitudes match the usual
# listing ABC, BAC, CAB, CBA, ACB, BCA.  Every other n uses lexicographic
# order of words.
PAPER3_WORDS = ((0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0))
# entry k: the lex-order position of the k-th paper3 word
_FROM_LEX3 = tuple(sorted(PAPER3_WORDS).index(word) for word in PAPER3_WORDS)


# The canonical n = 3 pairs, v = (v_AB, v_BC, v_AC)
PAIRS3 = ((0, 1), (1, 2), (0, 2))

_R6 = 1.0 / math.sqrt(6.0)
_R12 = 1.0 / math.sqrt(12.0)
_SQRT3 = math.sqrt(3.0)  # region's frame_of_v divides by it

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
        amps[PAPER3_WORDS.index(tuple(map(BOX_LETTERS.index, word)))] = complex(amp)
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


def factorial_dim(n: int) -> int:
    return math.factorial(validate_box_count(n))


@functools.lru_cache(maxsize=None)
def canonical_words(n: int) -> tuple[tuple[int, ...], ...]:
    """The n! words of n boxes in basis order: PAPER3_WORDS or lexicographic."""
    return PAPER3_WORDS if validate_box_count(n) == 3 else tuple(itertools.permutations(range(n)))


@functools.lru_cache(maxsize=None)
def pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """The box pairs (x, y), x < y, of weight and v-vectors: PAIRS3 or lexicographic."""
    return PAIRS3 if validate_box_count(n) == 3 else tuple(itertools.combinations(range(n), 2))


def pair_labels(n: int) -> tuple[str, ...]:
    return tuple(BOX_LETTERS[x] + BOX_LETTERS[y] for x, y in pair_order(n))


@functools.lru_cache(maxsize=None)
def exchange_mappings(n: int) -> tuple[tuple[int, ...], ...]:
    """Per canonical pair, its exchange's basis mapping: entry k is the index of
    word k with the pair's two labels swapped, by bytes.translate on words as bytes."""
    words = [bytes(word) for word in canonical_words(n)]
    index = {word: k for k, word in enumerate(words)}
    swaps = (bytes.maketrans(bytes((x, y)), bytes((y, x))) for x, y in pair_order(n))
    return tuple(tuple([index[word.translate(swap)] for word in words]) for swap in swaps)


@functools.lru_cache(maxsize=None)
def exchange_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per canonical pair, the word pairs (k, m) its exchange swaps, k < m, k ascending."""
    return tuple(tuple((k, m) for k, m in enumerate(mapping) if k < m) for mapping in exchange_mappings(n))


EXCHANGE_PAIRS3 = exchange_pairs(3)


def parse_sign(value) -> int:
    """+1 or -1 from "+" / "-" or a number equal to it, read by as_real."""
    sign = {"+": 1.0, "-": -1.0}.get(value) if isinstance(value, str) else as_real(value, "sign")
    if sign not in (1.0, -1.0):
        raise ValidationError(f"sign must be +1 or -1, got {value!r}")
    return int(sign)


def sign_index(s) -> int:
    """Position of a sign on the s1/s2 axes of the chi bases."""
    return 0 if parse_sign(s) > 0 else 1


def validate_angle(theta: float, upper: float, name: str, inclusive: bool = False) -> float:
    theta = as_real(theta, name)
    top = upper + 1e-12 if inclusive else upper
    if not math.isfinite(theta) or not (0.0 <= theta < top):
        bracket = "]" if inclusive else ")"
        raise ValidationError(f"{name} must lie in [0, {upper:.6g}{bracket}, got {theta}")
    return theta


def named_amplitudes(name: str, **params) -> tuple[complex, ...]:
    """Paper3-order amplitudes of a catalog state: chi takes the keywords
    CHI_PARAMS, every other name none."""
    if not isinstance(name, str):
        raise ValidationError(f"state name must be text, got {name!r}")
    if name == "chi":
        if unexpected := [k for k in params if k not in CHI_PARAMS]:
            raise ValidationError(f"chi takes only theta, phi, s1 and s2; unexpected {', '.join(unexpected)}")
        if missing := [k for k in CHI_PARAMS if k not in params]:
            raise ValidationError(f"chi needs theta, phi, s1 and s2; missing {', '.join(missing)}")
        return chi_amplitudes(**params)
    if params:
        raise ValidationError(f"state {name!r} takes no parameters")
    if name not in _NAMED:
        raise ValidationError(f"unknown named state {name!r}; choose from {NAMED_STATES}")
    return _NAMED[name]


def chi_amplitudes(theta: float, phi: float, s1, s2) -> tuple[complex, ...]:
    """Paper3-order amplitudes of cos(phi)|s1> + sin(phi)|psi_theta^(s2)>,
    with psi_theta = cos(theta/2) psi0 + sin(theta/2) s2 W3 psi0: the
    (s1, s2) row of boundary_rows on the one-point mesh (theta, phi)."""
    row = 2 * sign_index(s1) + sign_index(s2)
    amplitudes, _, _ = list(boundary_rows([theta], [phi]))[row]
    return tuple(map(complex, amplitudes))


def check_amplitudes(n: int, amps) -> None:
    """Refuse amplitudes (complex numbers) of n boxes unless n! finite entries of
    norm within NORM_TOL of 1: the one check of read_state and states.PureState."""
    dim = factorial_dim(n)
    if len(amps) != dim:
        raise ValidationError(f"expected {dim} amplitudes for n = {n}, got {len(amps)}")
    if not all(map(cmath.isfinite, amps)):
        raise ValidationError("amplitudes contain non-finite entries")
    # summed squares, not math.hypot: an entry near 1e200 reads as norm inf,
    # where hypot would give 1e200
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")


def read_state(obj) -> tuple[int, list[complex]]:
    """n and canonical-order amplitudes of a state-JSON object
    {"n": int, "ordering": "paper3"|"lex", "amplitudes": [[re, im], ...]}, refused by check_amplitudes."""
    try:
        n = validate_box_count(obj["n"])
        kind = obj["ordering"]
        raw = obj["amplitudes"]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from None
    if kind not in ("paper3", "lex"):
        raise ValidationError(f"unknown ordering {kind!r}")
    try:
        raw = list(raw)
        if holds_boolean(raw):  # complex() would read true as 1
            raise TypeError(f"amplitude parts must be numbers, got {next(p for p in raw if holds_boolean(p))}")
        amps = [complex(re, im) for re, im in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed amplitude list: {exc}") from None
    if kind == "paper3" and n != 3:
        raise ValidationError("ordering 'paper3' is defined only for n = 3")
    check_amplitudes(n, amps)
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


def gaussian_parts(n: int, count: int, rng):
    """(2, count, n!) iid standard normals from the numpy Generator `rng`: every
    real part, then every imaginary part, of `count` complex Gaussian rows."""
    return rng.standard_normal((2, count, factorial_dim(n)))


def v_of_amplitudes(n: int, amps) -> tuple[float, ...]:
    """v of unit canonical-order amplitudes of n boxes, in canonical pair
    order: per pair, the sum over its swapped words k < m, k ascending, of
    re_k re_m + im_k im_m, doubled.  That is observables.exchange_rows'
    order, so a state gets the bits it gets there."""
    v = []
    for pairs in exchange_pairs(n):
        total = 0.0
        for k, m in pairs:
            a, b = amps[k], amps[m]
            total += a.real * b.real + a.imag * b.imag
        v.append(2.0 * total)
    return tuple(v)


def mesh_axes(theta_steps, phi_steps) -> tuple[list[float], list[float]]:
    """The boundary mesh's axes: theta_k = k (pi/T) for k < T, as
    np.arange(T) * (pi/T) gives them, and phi_k = k ((pi/2)/(P - 1)) for
    k < P - 1, then pi/2 exactly, as np.linspace(0, pi/2, P) gives them.
    The mesh has 4 T P rows; more than MESH_MAX_ROWS are refused."""
    theta_steps, phi_steps = as_count(theta_steps, "theta steps"), as_count(phi_steps, "phi steps")
    if theta_steps < 2 or phi_steps < 2:
        raise ValidationError("mesh needs at least 2 steps per axis")
    if 4 * theta_steps * phi_steps > MESH_MAX_ROWS:
        raise CapacityError(f"mesh has 4 x {theta_steps} x {phi_steps} rows, over {MESH_MAX_ROWS}")
    theta_step, phi_step = math.pi / theta_steps, (math.pi / 2.0) / (phi_steps - 1)
    phis = [k * phi_step for k in range(phi_steps - 1)] + [math.pi / 2.0]
    return [k * theta_step for k in range(theta_steps)], phis


def boundary_rows(thetas, phis):
    """Yield (amplitudes, v, margin) of the boundary state of each mesh row,
    rows in (theta, phi, s1, s2) order with the signs +1 then -1: the real
    paper3 amplitudes of cos(phi)|s1> + sin(phi)|psi_theta^(s2)>, v by
    v_of_amplitudes' sums and region.check_sqrt's margin, each by the same
    arithmetic, written out on plain floats.  chi_amplitudes reads its
    amplitudes here.

    Every row is checked as it is made: amplitudes whose norm misses 1 by
    more than NORM_TOL (NaN included), or a margin beyond BOUNDARY_TOL,
    raise ConvergenceError.
    """
    thetas = [validate_angle(t, 2.0 * math.pi, "theta") for t in thetas]
    phis = [validate_angle(p, math.pi / 2.0, "phi", inclusive=True) for p in phis]
    syms, psi0s, signed_w3_psi0s = CHI_BASES
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    for theta in thetas:
        cos_half, sin_half = cos(theta / 2.0), sin(theta / 2.0)
        # psi_theta for s2 = +1 and -1
        psis = [tuple(cos_half * p + sin_half * w for p, w in zip(*rows)) for rows in zip(psi0s, signed_w3_psi0s)]
        for phi in phis:
            cos_phi, sin_phi = cos(phi), sin(phi)
            for a0, a1, a2, a3, a4, a5 in syms:
                for p0, p1, p2, p3, p4, p5 in psis:
                    x0 = cos_phi * a0 + sin_phi * p0
                    x1 = cos_phi * a1 + sin_phi * p1
                    x2 = cos_phi * a2 + sin_phi * p2
                    x3 = cos_phi * a3 + sin_phi * p3
                    x4 = cos_phi * a4 + sin_phi * p4
                    x5 = cos_phi * a5 + sin_phi * p5
                    error = abs(sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + x5 * x5) - 1.0)
                    if not error <= NORM_TOL:
                        raise ConvergenceError(f"surface amplitudes miss unit norm by {error:.2e}; solver bug")
                    # EXCHANGE_PAIRS3: AB (0, 1), (2, 3), (4, 5); BC (0, 4), (1, 2), (3, 5); AC (0, 3), (1, 5), (2, 4)
                    ab = 2.0 * (0.0 + x0 * x1 + x2 * x3 + x4 * x5)
                    bc = 2.0 * (0.0 + x0 * x4 + x1 * x2 + x3 * x5)
                    ac = 2.0 * (0.0 + x0 * x3 + x1 * x5 + x2 * x4)
                    # region.frame_of_v, then margin_of_w
                    u2, u3 = (2.0 * ab - bc - ac) / 3.0, (bc - ac) / _SQRT3
                    margin = 1.0 - (abs((ab + bc + ac) / 3.0) + sqrt(u2 * u2 + u3 * u3))
                    if not abs(margin) <= BOUNDARY_TOL:
                        raise ConvergenceError(f"surface state missed the boundary by {abs(margin):.2e}; solver bug")
                    yield (x0, x1, x2, x3, x4, x5), (ab, bc, ac), margin


def write_boundary_csv(thetas, phis, v_rows, stream) -> None:
    """CSV columns: v_AB,v_BC,v_AC,theta,phi,s1,s2 (12 significant digits)
    of the mesh on the (theta, phi) grid, whose v-vectors `v_rows` yields in
    boundary_rows' order.

    Only `stream.write` is called, once for the header and once per block
    of CSV_BLOCK_ROWS rows, so the text in memory stays bounded.  Each theta
    and phi is formatted once; a row is a template that holds them as text,
    and a block's v-values fill its templates with one `%`.
    """
    stream.write("v_AB,v_BC,v_AC,theta,phi,s1,s2\n")
    tails = [f",{phi:.12g},{s}\n" for phi in phis for s in ("+,+", "+,-", "-,+", "-,-")]
    templates = (
        "%.12g,%.12g,%.12g," + theta + tail for theta in [f"{theta:.12g}" for theta in thetas] for tail in tails
    )
    v_rows = iter(v_rows)
    for _ in range(0, len(thetas) * len(tails), CSV_BLOCK_ROWS):
        block = tuple(itertools.chain.from_iterable(itertools.islice(v_rows, CSV_BLOCK_ROWS)))
        stream.write("".join(itertools.islice(templates, len(block) // 3)) % block)
