import json

import numpy as np
import pytest

from statmon import group_core as gc
from statmon import observables as ob
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


def test_normalize_zero_vector_rejected():
    with pytest.raises(ValidationError):
        st.normalize(np.zeros(6))


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


def test_apply_eigenstates_and_involution():
    eq5 = st.named_state("eq5")
    eq6 = st.named_state("eq6")
    ab = gc.exchange_operator(3, gc.Pair.parse("AB"))
    assert np.abs(st.apply(ab, eq5).amplitudes - eq5.amplitudes).max() < 1e-12
    assert np.abs(st.apply(ab, eq6).amplitudes + eq6.amplitudes).max() < 1e-12
    psi = st.random_pure_state(3, 123)
    twice = st.apply(ab, st.apply(ab, psi))
    assert np.abs(twice.amplitudes - psi.amplitudes).max() == 0.0


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
            z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
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
    lex = gc.BasisOrdering(3, "lex")
    canonical = gc.BasisOrdering.canonical(3)
    amps = st.random_pure_state(3, 99).amplitudes
    payload = {
        "n": 3,
        "ordering": "lex",
        "amplitudes": [
            [amps[canonical.word_to_index(w)].real, amps[canonical.word_to_index(w)].imag]
            for w in lex.words
        ],
    }
    back = st.state_from_jsonable(payload)
    assert np.abs(back.amplitudes - amps).max() < 1e-15


def test_state_json_rejects_malformed():
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"n": 3, "ordering": "weird", "amplitudes": []})
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"n": 4, "ordering": "paper3", "amplitudes": []})
    with pytest.raises(ValidationError):
        st.state_from_jsonable({"ordering": "lex"})
