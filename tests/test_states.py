import itertools
import json
import math

import numpy as np
import pytest

from statmon import extremal as ex
from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import observables as ob
from statmon import state3
from statmon import states as st
from statmon.errors import CapacityError, ValidationError


def test_normalize_scaling():
    state = st.normalize([2, 0, 0, 0, 0, 0])
    assert state.amplitudes[0] == 1.0
    assert state.norm() == 1.0


def test_normalize_idempotent():
    psi = st.random_pure_state(3, 9)
    again = st.normalize(psi)
    assert np.abs(again.amplitudes - psi.amplitudes).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, True, "3"])
def test_normalize_refuses_a_state_with_another_box_count(n):
    with pytest.raises(ValidationError):
        st.normalize(st.named_state("eq5"), n)
    assert st.normalize(st.named_state("eq5"), 3).n == 3


def test_normalize_zero_vector_rejected():
    with pytest.raises(ValidationError):
        st.normalize(np.zeros(6))


@pytest.mark.parametrize(
    "amplitudes, expected",
    [
        # the squared norm underflows to 0 or overflows to inf
        ([1e-200, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]),
        ([1e-320, 0, 0, -1e-320j, 0, 0], [2**-0.5, 0, 0, -(2**-0.5) * 1j, 0, 0]),
        ([1e200, 1e200, 0, 0, 0, 0], [2**-0.5, 2**-0.5, 0, 0, 0, 0]),
        ([1.5e308 + 1.5e308j, 0, 0, 0, 0, 0], [(1 + 1j) * 2**-0.5, 0, 0, 0, 0, 0]),
    ],
)
def test_normalize_takes_any_finite_nonzero_vector(amplitudes, expected):
    state = st.normalize(amplitudes)
    assert np.abs(state.amplitudes - expected).max() <= 1e-15


def test_normalize_keeps_the_bits_of_a_vector_whose_norm_is_finite():
    z = np.random.default_rng(3).standard_normal((6, 2)) @ [1, 1j]
    assert st.normalize(z).amplitudes.tobytes() == (z / np.linalg.norm(z)).tobytes()


def test_pure_state_validates_norm_and_length():
    with pytest.raises(ValidationError):
        st.PureState(3, np.ones(6))  # norm sqrt(6)
    with pytest.raises(ValidationError):
        st.PureState(3, np.ones(4) / 2.0)


def test_named_state_v_vectors():
    cases = {
        "sym_plus": (1.0, 1.0, 1.0),
        "antisym_minus": (-1.0, -1.0, -1.0),
        "eq5": (1.0, -0.5, -0.5),
        "eq6": (-1.0, 0.5, 0.5),
        "phi_eq23": (0.5, 0.5, -1.0),
        "nontransitive_3_5": (0.6, 0.6, -0.6),
    }
    for name, expected in cases.items():
        v = ob.v_vector(st.named_state(name))
        assert np.abs(v - np.array(expected)).max() < 1e-12, name


def test_named_state_unknown():
    with pytest.raises(ValidationError):
        st.named_state("nope")
    with pytest.raises(ValidationError):
        st.named_state("eq5", theta=1.0)
    with pytest.raises(ValidationError):
        st.named_state("chi", theta=0.1, phi=0.1, s1=+1)  # missing s2


def test_named_chi_names_missing_and_unexpected_parameters():
    with pytest.raises(ValidationError) as missing:
        st.named_state("chi", theta=1.0)
    assert str(missing.value) == "chi needs theta, phi, s1 and s2; missing phi, s1, s2"
    with pytest.raises(ValidationError) as unexpected:
        st.named_state("chi", theta=1.0, phi=0.5, s1=1, s2=-1, psi=2, rho=3)
    assert str(unexpected.value) == "chi takes only theta, phi, s1 and s2; unexpected psi, rho"
    with pytest.raises(ValidationError, match="theta must be a number, got None"):
        st.named_state("chi", theta=None, phi=0.5, s1=1, s2=-1)


def test_apply_eigenstates_and_involution():
    eq5 = st.named_state("eq5")
    eq6 = st.named_state("eq6")
    ab = gc.exchange_operator(3, gc.Pair.parse("AB"))
    assert np.abs(st.apply(ab, eq5).amplitudes - eq5.amplitudes).max() < 1e-12
    assert np.abs(st.apply(ab, eq6).amplitudes + eq6.amplitudes).max() < 1e-12
    psi = st.random_pure_state(3, 123)
    twice = st.apply(ab, st.apply(ab, psi))
    assert np.abs(twice.amplitudes - psi.amplitudes).max() == 0.0


def test_apply_on_a_fresh_ordering_keeps_the_ab_boson_pair():
    eq5 = st.named_state("eq5")
    op = gc.ExchangeOperator(gc.BasisOrdering(3), gc.Pair(0, 1))
    assert st.apply(op, eq5).amplitudes.tobytes() == eq5.amplitudes.tobytes()


def test_unit_rows_divides_each_row_by_its_norm_in_place():
    z = np.random.default_rng(8).standard_normal((50, 24, 2)) @ [1, 1j]
    norms = np.linalg.norm(z, axis=1)
    expected = z / norms[:, None]
    assert st.unit_rows(z) is z
    assert np.abs(z - expected).max() <= 1e-15
    assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-15


def test_random_state_deterministic_and_normalized():
    a = st.random_pure_state(4, 77)
    b = st.random_pure_state(4, 77)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(a.norm() - 1.0) < 1e-12
    assert not np.array_equal(a.amplitudes, st.random_pure_state(4, 78).amplitudes)


@pytest.mark.parametrize(
    "seed, message",
    [(1.5, "must be an integer"), ("7", "must be an integer"), (True, "must be an integer"), (-1, "non-negative")],
)
def test_random_state_refuses_a_bad_seed(seed, message):
    with pytest.raises(ValidationError, match=message):
        st.random_pure_state(3, seed)


def test_random_state_takes_a_numpy_integer_seed():
    psi = st.random_pure_state(3, np.int64(77))
    assert np.array_equal(psi.amplitudes, st.random_pure_state(3, 77).amplitudes)


@pytest.mark.parametrize("n", [3, 4])
def test_random_amplitudes_keep_the_two_call_draw(n):
    dim = gc.factorial_dim(n)
    for count in (1, 2, 17, 1000):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = st.unit_rows(rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))
            again = np.random.default_rng(seed)
            assert st.random_amplitudes(n, count, again).tobytes() == z.tobytes()
            assert again.standard_normal() == rng.standard_normal()


def test_random_state_haar_mean_is_traceless():
    # every exchange operator moves every word, so its Haar mean vanishes
    rng = np.random.default_rng(42)
    amps = st.random_amplitudes(3, 100000, rng)
    mapping = gc.exchange_operator(3, gc.Pair.parse("AB")).mapping
    vals = np.einsum("ij,ij->i", amps.conj(), amps[:, mapping]).real
    tolerance = 5.0 * vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean()) < tolerance


def test_equal_up_to_global_phase():
    psi = st.random_pure_state(3, 5)
    rotated = st.PureState(3, np.exp(0.7j) * psi.amplitudes)
    assert st.equal_up_to_global_phase(psi, rotated)
    other = st.random_pure_state(3, 6)
    assert not st.equal_up_to_global_phase(psi, other)


def test_mixed_state_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        st.MixedState(3, np.eye(6))  # trace 6
    rng = np.random.default_rng(8)
    bad = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(ValidationError):
        st.MixedState(3, bad)
    # negative direction: a valid projector minus too much identity
    psi = st.named_state("sym_plus").projector()
    with pytest.raises(ValidationError):
        st.MixedState(3, 1.2 * psi - 0.2 * np.eye(6) / 6.0 + 0.0j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_mixed_state_names_a_nonfinite_entry(bad):
    # NaN compares false, so the Hermiticity and trace checks let it through
    rho = np.eye(6, dtype=np.complex128) / 6.0
    rho[2, 4] = bad
    with pytest.raises(ValidationError, match=r"entry \(2, 4\) is .*not finite"):
        st.MixedState(3, rho)


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_mixed_state_refuses_an_entry_above_one_before_symmetrizing(big):
    # Hermitian with unit trace, but (rho + rho^H)/2 would overflow; a PSD
    # unit-trace matrix has no entry of modulus above 1
    rho = np.eye(6, dtype=np.complex128) / 6.0
    rho[0, 1] = rho[1, 0] = big
    with pytest.raises(ValidationError, match=r"entry \(0, 1\) is .*1e\+308.*not finite or above 1"):
        st.MixedState(3, rho)


def test_pure_state_norm_error_prints_a_plain_float():
    with pytest.raises(ValidationError, match=r"^state norm 2\.0 differs from 1 by more than 1e-09$"):
        st.PureState(3, [2, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("big", [1e200, -1e200j, 1e308])
def test_pure_state_refuses_an_amplitude_whose_square_overflows(big):
    # the norm overflowed with numpy's RuntimeWarning before the refusal
    with pytest.raises(ValidationError, match=r"^state norm inf differs from 1"):
        st.PureState(3, [big, 0, 0, 0, 0, 0])


def _refusal(read, *args):
    """The ValidationError message of read(*args), or None if it accepts."""
    try:
        read(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def test_read_state_and_pure_state_agree_a_few_ulps_from_the_norm_bounds():
    # each seeded row is scaled to a few ulps either side of 1 +- NORM_TOL by
    # its summed squares; numpy's norm, which PureState took, reads some of
    # them on the other side of the bound
    verdicts = []
    for n in (3, 4, 5):
        rng = np.random.default_rng(11 + n)
        for _ in range(12):
            z = st.random_amplitudes(n, 1, rng)[0]
            norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in z.tolist()))
            for bound in (1.0 + state3.NORM_TOL, 1.0 - state3.NORM_TOL):
                for ulps in range(-3, 4):
                    amps = z * (bound / norm * (1.0 + ulps * 2.0**-52))
                    payload = {"n": n, "ordering": "paper3" if n == 3 else "lex",
                               "amplitudes": np.stack([amps.real, amps.imag], axis=-1).tolist()}
                    refusal = _refusal(state3.read_state, payload)
                    assert refusal == _refusal(st.PureState, n, amps), (n, bound, ulps)
                    verdicts.append(refusal is None)
    assert 0 < sum(verdicts) < len(verdicts)


BOOLEAN_AS_NUMBER = {
    "check_sqrt": lambda b: mg.check_sqrt([b, 0, 0]),
    "check_theta": lambda b: mg.check_theta([0.1, 0.1, 0.1], b),
    "Objective.from_pairs": lambda b: ex.Objective.from_pairs(3, {"AB": b}),
    "Objective": lambda b: ex.Objective(3, [b, 0.5, b]),
    "MixedState.from_mixture": lambda b: st.MixedState.from_mixture(
        [b, 1 - b], [st.named_state("eq5"), st.named_state("eq6")]
    ),
    "Pair": lambda b: gc.Pair(b, 2),
    "symmetric_ray_extreme": lambda b: ex.symmetric_ray_extreme([b, 1, 1]),
    "chi_state": lambda b: ob.chi_state(b, 0.5, 1, 1),
    "w_theta": lambda b: ob.w_theta(b),
    "named_state": lambda b: st.named_state("chi", theta=0.5, phi=b, s1=1, s2=-1),
    "PureState": lambda b: st.PureState(3, [b, 0, 0, 0, 0, 0]),
    "normalize": lambda b: st.normalize([b, 0, 0, 0, 0, 0]),
    "bunching_probability": lambda b: ob.bunching_probability(b),
    "antibunching_probability": lambda b: ob.antibunching_probability(b),
}


@pytest.mark.parametrize("boolean", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("call", BOOLEAN_AS_NUMBER.values(), ids=BOOLEAN_AS_NUMBER)
def test_booleans_are_refused_where_numbers_are_read(call, boolean):
    # float() and numpy read true as 1: each of these once computed with it
    call(1)
    with pytest.raises(ValidationError):
        call(boolean)


def test_mixed_state_keeps_the_hermitian_part_of_a_near_hermitian_matrix():
    # 0.45e-9 i on each AB-swapped entry passes the 1e-9 Hermiticity check
    # (|rho - rho^H| = 9e-10), but summed over 24 rows it would give <Pi_AB> an
    # imaginary residue of 1.08e-8
    ab = gc.exchange_operator(4, gc.Pair(0, 1)).mapping
    rho = np.eye(24, dtype=np.complex128) / 24.0
    rho[np.arange(24), ab] += 0.45e-9j
    mixed = st.MixedState(4, rho)
    assert np.array_equal(mixed.matrix, mixed.matrix.conj().T)
    v = ob.v_vector(mixed)
    by_operator = [ob.expectation(mixed, op) for op in gc.all_exchange_operators(4)]
    assert np.isfinite(v).all()
    assert np.array_equal(v, by_operator)
    # exactly Hermitian input keeps its bits
    exact = st.MixedState.from_mixture([0.3, 0.7], [st.random_pure_state(4, 1), st.random_pure_state(4, 2)])
    assert np.array_equal(st.MixedState(4, exact.matrix).matrix, exact.matrix)


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, -np.inf]])
def test_mixture_names_a_nonfinite_weight(weights):
    components = [st.named_state("eq5"), st.named_state("eq6")]
    with pytest.raises(ValidationError, match="mixture weights must be finite"):
        st.MixedState.from_mixture(weights, components)


def test_mixed_state_byte_gate_refuses_before_allocating():
    assert 720 * 720 * 16 <= st.DENSITY_MAX_BYTES  # n = 6 is admitted
    with pytest.raises(CapacityError):
        st.MixedState(7, np.zeros((1, 1)))
    # without the gate the mixture allocates a 5040 x 5040 complex matrix first
    e0 = np.zeros(5040)
    e0[0] = 1.0
    with pytest.raises(CapacityError):
        st.MixedState.from_mixture([1.0], [st.PureState(7, e0)])


def test_state_json_round_trip():
    psi = st.random_pure_state(3, 31)
    payload = st.state_to_jsonable(psi)
    assert payload["ordering"] == "paper3"
    back = st.state_from_jsonable(json.loads(json.dumps(payload)))
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-15

    four = st.random_pure_state(4, 31)
    payload4 = st.state_to_jsonable(four)
    assert payload4["ordering"] == "lex"
    back4 = st.state_from_jsonable(payload4)
    assert np.abs(back4.amplitudes - four.amplitudes).max() < 1e-15


def test_state_json_lex_reorders_to_paper3():
    canonical = gc.BasisOrdering.canonical(3)
    amps = st.random_pure_state(3, 99).amplitudes
    payload = {
        "n": 3,
        "ordering": "lex",
        "amplitudes": [
            [amps[canonical.word_to_index(w)].real, amps[canonical.word_to_index(w)].imag]
            for w in itertools.permutations(range(3))
        ],
    }
    back = st.state_from_jsonable(payload)
    assert np.abs(back.amplitudes - amps).max() < 1e-15


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: st.MixedState.from_mixture([0.5, 0.5], [st.named_state("eq5")]),
            "weights and states must be equally many and nonempty",
        ),
        (
            lambda: st.MixedState.from_mixture([1.5, -0.5], [st.named_state("eq5"), st.named_state("eq6")]),
            "mixture weights must be nonnegative and sum to 1",
        ),
        (
            lambda: st.MixedState.from_mixture([0.5, 0.5], [st.named_state("eq5"), st.random_pure_state(4, 1)]),
            "all mixture components must share the same n",
        ),
        (
            lambda: st.state_from_jsonable(
                {"n": 3, "ordering": "paper3", "amplitudes": [[1, 0, 0]] + [[0, 0]] * 5}
            ),
            "malformed amplitude list",
        ),
    ],
    ids=["mixture-lengths-differ", "mixture-negative-weight", "mixture-mixed-n", "amplitude-of-3-entries"],
)
def test_states_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_state_json_rejects_malformed():
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"n": 3, "ordering": "weird", "amplitudes": []})
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"n": 4, "ordering": "paper3", "amplitudes": []})
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"ordering": "lex"})
    # complex() would read true as 1
    with pytest.raises(ValidationError, match="amplitude parts must be numbers"):
        st.state_from_jsonable({"n": 3, "ordering": "paper3", "amplitudes": [[True, 0]] + [[0, 0]] * 5})
