import itertools
import math
import re

import numpy as np
import pytest

from lcstates import (DensityMatrix, InvariantError, PureState, SystemShape,
                      UnsupportedError, basis_state, canonical_state,
                      deterministic_eigh, distance, ghz_state, max_entangled,
                      partial_trace, purify, schmidt_decompose,
                      spectral_ensemble, tensor_product, w_state, z_mixture)
from lcstates.states import (ATOL, DEGENERACY_TOL, MAX_TOTAL_DIM, RANK_TOL,
                             _check_unit_rows, _cut_permutation, _fix_phases,
                             _fold, _pure_states, _unfold)
from conftest import random_density, random_pure, random_unitary

Q1 = SystemShape((2,))
Q3 = SystemShape((2, 2, 2))


class TestInvariants:
    def test_shape_validation(self):
        with pytest.raises(InvariantError):
            SystemShape(())
        with pytest.raises(InvariantError):
            SystemShape((2, 0))
        assert SystemShape((2, 3, 4)).total_dim == 24

    @pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), (True, 2),
                                      (float("nan"), 2), ("2", 2)])
    def test_shape_dims_must_be_integers(self, dims):
        # (2.5, 2) used to become (2, 2) and (True, 2) become (1, 2)
        with pytest.raises(InvariantError, match="integer"):
            SystemShape(dims)

    def test_shape_accepts_numpy_integers(self):
        shape = SystemShape((np.int64(2), np.uint8(3)))
        assert shape.local_dims == (2, 3)
        assert all(type(d) is int for d in shape.local_dims)

    def test_shape_size_bound(self):
        # checked on the dims alone: max_entangled(65) would need only a
        # 4225-entry vector, and no test allocates an oversized array
        assert SystemShape((2,) * 12).total_dim == MAX_TOTAL_DIM
        for dims in ((2,) * 13, (2,) * 40, (10 ** 5, 10 ** 5)):
            with pytest.raises(UnsupportedError, match="total dimension"):
                SystemShape(dims)
        with pytest.raises(UnsupportedError, match="total dimension"):
            max_entangled(65)

    def test_pure_norm_enforced(self):
        with pytest.raises(InvariantError):
            PureState(Q1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("norm, ok", [
        (1 + 0.5e-9, True), (1 - 0.5e-9, True),
        (1 + 2e-9, False), (1 - 2e-9, False),
    ], ids=("+0.5e-9", "-0.5e-9", "+2e-9", "-2e-9"))
    def test_unit_norm_tolerance(self, norm, ok):
        # a vector, and one row of a batch, of norm 1 +- 0.5e-9 pass the
        # ATOL = 1e-9 check and 1 +- 2e-9 fail it
        vec = np.array([norm, 0.0], dtype=complex)
        batch = np.array([[1.0, 0.0], [0.0, norm]], dtype=complex)
        for check in (lambda: PureState(Q1, vec), lambda: _check_unit_rows(batch)):
            if ok:
                check()
            else:
                with pytest.raises(InvariantError, match="^state vector is not normalized$"):
                    check()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200],
                             ids=("nan", "inf", "1e200"))
    def test_unit_norm_rejects_a_bad_row(self, bad):
        # a NaN or infinite row fails; so does a finite one whose squared
        # norm overflows, without an overflow warning (which the suite
        # raises as an error)
        batch = np.array([[1.0, 0.0], [bad, 0.0]], dtype=complex)
        with pytest.raises(InvariantError, match="^state vector is not normalized$"):
            _check_unit_rows(batch)
        with pytest.raises(InvariantError, match="^state vector is not normalized$"):
            _check_unit_rows(batch[1])

    def test_pure_length_enforced(self):
        with pytest.raises(InvariantError, match="^amplitude vector has "
                           "length 3, shape needs 2"):
            PureState(Q1, np.array([1.0, 0.0, 0.0]))

    def test_equal_up_to_phase_needs_one_shape(self):
        # the same amplitudes over another shape are another state
        a = PureState(SystemShape((2, 2)), [1, 0, 0, 0])
        b = PureState(SystemShape((4,)), [1, 0, 0, 0])
        assert not a.equals_up_to_phase(b)
        assert not ghz_state().equals_up_to_phase(max_entangled(2))
        assert a.equals_up_to_phase(PureState(a.shape, [1j, 0, 0, 0]))

    def test_density_validation(self):
        with pytest.raises(InvariantError):
            DensityMatrix(Q1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
        with pytest.raises(InvariantError):
            DensityMatrix(Q1, np.array([[1.5, 0], [0, -0.5]]))       # not PSD
        with pytest.raises(InvariantError):
            DensityMatrix(Q1, np.eye(2))                             # trace 2

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantError, match="finite"):
            PureState(Q1, np.array([np.nan, 0.0]))
        with pytest.raises(InvariantError, match="finite"):
            PureState(Q1, np.array([np.inf, 0.0]))
        with pytest.raises(InvariantError, match="finite"):
            DensityMatrix(Q1, np.full((2, 2), np.nan))

    def test_states_immutable(self):
        psi = ghz_state()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0

    def test_constructors_copy_the_callers_array(self):
        # changing the caller's array after validation leaves the state as
        # it was, and the caller's array stays writable
        a = np.zeros(8, complex)
        a[0] = 1
        psi = PureState(Q3, a)
        a[0] = 5
        assert np.linalg.norm(psi.amplitudes) == 1.0
        m = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityMatrix(Q1, m)
        m[0, 0] = 1
        m[1, 1] = 7
        assert np.trace(rho.entries).real == 1.0


class TestTensorProduct:
    def test_basis_case(self):
        zero = basis_state(Q1, 0)
        prod = tensor_product(zero, zero)
        assert np.allclose(prod.amplitudes, [1, 0, 0, 0])

    def test_rebuilds_ghz(self):
        zero = basis_state(Q1, 0)
        one = basis_state(Q1, 1)
        v000 = tensor_product(tensor_product(zero, zero), zero).amplitudes
        v111 = tensor_product(tensor_product(one, one), one).amplitudes
        rebuilt = (v000 + v111) / np.sqrt(2)
        assert np.allclose(rebuilt, ghz_state().amplitudes, atol=1e-12)

    def test_dimension_arithmetic(self, rng):
        for dims_a, dims_b in [((2,), (3,)), ((2, 3), (4,)), ((2, 2), (2, 3))]:
            a = random_pure(SystemShape(dims_a), rng)
            b = random_pure(SystemShape(dims_b), rng)
            assert tensor_product(a, b).shape.total_dim == \
                a.shape.total_dim * b.shape.total_dim

    def test_mixed_kinds_rejected(self, rng):
        with pytest.raises(InvariantError):
            tensor_product(ghz_state(), z_mixture(0.5))

    def test_associative(self, rng):
        a = random_pure(SystemShape((2,)), rng)
        b = random_pure(SystemShape((3,)), rng)
        c = random_pure(SystemShape((2,)), rng)
        lhs = tensor_product(tensor_product(a, b), c)
        rhs = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12


class TestPartialTrace:
    def test_ghz_single_party(self):
        # oracle: direct index summation over the 8 amplitudes
        amps = ghz_state().amplitudes
        expect = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for ip in range(2):
                for j in range(2):
                    for k in range(2):
                        expect[i, ip] += amps[4 * i + 2 * j + k] * \
                            np.conj(amps[4 * ip + 2 * j + k])
        got = partial_trace(ghz_state().density(), {0})
        assert np.allclose(got.entries, expect, atol=1e-12)
        assert np.allclose(got.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_pure_marginal(self, rng):
        a = random_pure(SystemShape((2,)), rng)
        b = random_pure(SystemShape((3,)), rng)
        rho = tensor_product(a, b).density()
        for keep in ({0}, {1}):
            marg = partial_trace(rho, keep)
            assert abs(marg.purity() - 1.0) < 1e-9

    def test_trace_preserved(self, rng):
        for _ in range(100):
            rho = random_density(SystemShape((2, 3)), rng)
            out = partial_trace(rho, {1})
            assert abs(np.trace(out.entries).real - 1.0) < 1e-12

    def test_marginal_of_product(self, rng):
        a = random_density(SystemShape((2, 2)), rng)
        b = random_density(SystemShape((3,)), rng)
        marg = partial_trace(tensor_product(a, b), {0, 1})
        assert np.max(np.abs(marg.entries - a.entries)) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 3, 4), (2, 2, 2, 2)])
    def test_every_keep_matches_einsum(self, rng, dims):
        # kept parties need not be adjacent, nor their dims equal
        n = len(dims)
        rho = random_density(SystemShape(dims), rng)
        t = rho.entries.reshape(dims + dims)
        rows, cols = "abcd"[:n], "efgh"[:n]
        for r in range(1, n + 1):
            for keep in itertools.combinations(range(n), r):
                # a traced party's column index is its row index
                col_in = "".join(cols[k] if k in keep else rows[k] for k in range(n))
                out = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
                d = math.prod(dims[k] for k in keep)
                ref = np.einsum(f"{rows}{col_in}->{out}", t).reshape(d, d)
                got = partial_trace(rho, keep)
                assert got.shape.local_dims == tuple(dims[k] for k in keep)
                assert np.max(np.abs(got.entries - ref)) <= 1e-14

    def test_errors(self):
        rho = ghz_state().density()
        with pytest.raises(InvariantError):
            partial_trace(rho, set())
        with pytest.raises(InvariantError):
            partial_trace(rho, {3})

    @pytest.mark.parametrize("keep", [[0.7], [True], [np.float64(1.0)], ["0"]])
    def test_keep_must_be_integers(self, keep):
        # [0.7] used to keep party 0 and [True] party 1
        with pytest.raises(InvariantError, match="integers"):
            partial_trace(ghz_state().density(), keep)

    def test_keep_names_each_party_once(self):
        # [0, 0] used to keep party 0
        with pytest.raises(InvariantError, match="each party once"):
            partial_trace(ghz_state().density(), [0, 0])

    def test_keep_accepts_sets_and_numpy_integers(self):
        rho = ghz_state().density()
        ref = partial_trace(rho, [0, 2]).entries
        for keep in ({2, 0}, (np.int64(2), 0), np.array([0, 2])):
            assert np.array_equal(partial_trace(rho, keep).entries, ref)


class TestDistance:
    def test_identity(self):
        rho = z_mixture(0.4)
        assert distance("trace", rho, rho) == pytest.approx(0, abs=1e-12)

    def test_orthogonal_pure(self):
        a = basis_state(Q1, 0).density()
        b = basis_state(Q1, 1).density()
        assert distance("trace", a, b) == pytest.approx(1, abs=1e-12)

    def test_w_ghz_orthogonal(self):
        # oracle: direct amplitude inner product vanishes
        assert abs(np.vdot(w_state().amplitudes, ghz_state().amplitudes)) == 0
        assert distance("trace", w_state().density(), ghz_state().density()) \
            == pytest.approx(1, abs=1e-9)

    def test_fidelity_endpoints(self):
        rho = z_mixture(0.2)
        assert distance("fidelity", rho, rho) == pytest.approx(1, abs=1e-9)
        a = basis_state(Q1, 0).density()
        b = basis_state(Q1, 1).density()
        assert distance("fidelity", a, b) == pytest.approx(0, abs=1e-12)

    def test_metric_properties(self, rng):
        shape = SystemShape((2, 2))
        for _ in range(50):
            a, b, c = (random_density(shape, rng) for _ in range(3))
            dab = distance("trace", a, b)
            assert abs(dab - distance("trace", b, a)) < 1e-9
            assert dab <= distance("trace", a, c) + distance("trace", c, b) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(InvariantError):
            distance("trace", z_mixture(0.5), max_entangled(2).density())

    def test_unknown_metric(self):
        with pytest.raises(InvariantError):
            distance("bures", z_mixture(0.5), z_mixture(0.5))


class TestBasisState:
    @pytest.mark.parametrize("index", [1.5, True, -1, 8, "1"])
    def test_index_must_be_an_integer_in_range(self, index):
        # 1.5 used to raise a bare IndexError, and True set every amplitude
        with pytest.raises(InvariantError, match="basis index must be an integer"):
            basis_state(Q3, index)

    def test_numpy_integer_index(self):
        psi = basis_state(Q3, np.int64(5))
        assert np.array_equal(psi.amplitudes, np.eye(8)[5])


class TestSchmidt:
    def test_max_entangled(self):
        sf = schmidt_decompose(max_entangled(2), ((0,), (1,)))
        assert np.allclose(sf.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_rank_one(self, rng):
        a = random_pure(SystemShape((2,)), rng)
        b = random_pure(SystemShape((3,)), rng)
        sf = schmidt_decompose(tensor_product(a, b), ((0,), (1,)))
        assert sf.rank() == 1
        assert sf.coefficients[0] == pytest.approx(1, abs=1e-12)

    def test_ghz_cut(self):
        # oracle: reshape amplitudes to 2x4 and take singular values directly
        m = ghz_state().amplitudes.reshape(2, 4)
        sv = np.linalg.svd(m, compute_uv=False)
        sf = schmidt_decompose(ghz_state(), ((0,), (1, 2)))
        assert np.allclose(sf.coefficients, sv, atol=1e-12)
        assert np.allclose(sf.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction(self, rng):
        psi = random_pure(SystemShape((2, 3, 2)), rng)
        cut = ((0, 2), (1,))
        sf = schmidt_decompose(psi, cut)
        # rebuild in cut order, then undo the permutation
        m = sum(c * np.outer(sf.left_basis[:, i], sf.right_basis[:, i])
                for i, c in enumerate(sf.coefficients))
        t = m.reshape(2, 2, 3)                      # (party0, party2, party1)
        rebuilt = np.transpose(t, (0, 2, 1)).reshape(-1)
        assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-9
        assert abs(np.sum(sf.coefficients ** 2) - 1) < 1e-9

    def test_local_unitary_invariance(self, rng):
        psi = random_pure(SystemShape((2, 2)), rng)
        base = schmidt_decompose(psi, ((0,), (1,))).coefficients
        for _ in range(20):
            u = random_unitary(2, rng)
            rotated = PureState(psi.shape,
                                np.kron(u, np.eye(2)) @ psi.amplitudes)
            got = schmidt_decompose(rotated, ((0,), (1,))).coefficients
            assert np.max(np.abs(got - base)) < 1e-9

    @pytest.mark.parametrize("cut", [((0,), (1, 2)), ((0, 2), (1,)),
                                     ((1, 2), (0,)), ((2,), (0, 1))])
    def test_unfold_fold(self, cut, rng):
        # the (dl, dr) unfolding holds amplitude [i_0, i_1, i_2] at row
        # (left indices) and column (right indices), big-endian per side,
        # and _fold inverts it bit for bit, with a batch axis
        shape = SystemShape((2, 3, 4))
        left, right, dl, dr = _cut_permutation(shape, cut)
        amps = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
        mats = _unfold(amps, shape, left, right)
        assert mats.shape == (2, dl, dr)
        t = amps.reshape(2, 2, 3, 4)
        for idx in np.ndindex(2, 3, 4):
            row = np.ravel_multi_index([idx[k] for k in left],
                                       [shape.local_dims[k] for k in left])
            col = np.ravel_multi_index([idx[k] for k in right],
                                       [shape.local_dims[k] for k in right])
            assert mats[1, row, col] == t[(1, *idx)]
        assert np.array_equal(_fold(mats, shape, left, right), amps)

    def test_invalid_cut(self):
        with pytest.raises(InvariantError):
            schmidt_decompose(ghz_state(), ((0,), (1,)))   # party 2 missing
        with pytest.raises(InvariantError):
            schmidt_decompose(ghz_state(), ((0, 1, 2), ()))

    @pytest.mark.parametrize("cut", [((0,), (1,), (2,)), ((0,),), (0, 1), 3])
    def test_cut_must_be_a_pair_of_collections(self, cut):
        # these used to raise a bare ValueError or TypeError on unpacking
        with pytest.raises(InvariantError, match="cut must be a pair"):
            schmidt_decompose(ghz_state(), cut)

    @pytest.mark.parametrize("cut", [((0,), (1, 1, 2)), ((0, 0), (1, 2))])
    def test_party_named_twice_rejected(self, cut):
        with pytest.raises(InvariantError, match="each party once"):
            schmidt_decompose(ghz_state(), cut)

    @pytest.mark.parametrize("cut, message", [
        (((0,), (True, 2)), r"^party indices must be integers, got \[True, 2\]$"),
        (((0.0,), (1, 2)), r"^party indices must be integers, got \[0\.0\]$"),
        (((0,), (1, 3)), r"^party index out of range for 3 parties$"),
        (((-1, 0), (1, 2)), r"^party index out of range for 3 parties$"),
        (((0, 1), (1, 2)), r"^cut must partition all parties into two nonempty groups$"),
        (((0, 1, 2), ()), r"^party subset must be nonempty$"),
    ], ids=("bool", "float", "too-large", "negative", "both-sides", "empty-side"))
    def test_cut_permutation_rejects(self, cut, message):
        with pytest.raises(InvariantError, match=message):
            _cut_permutation(SystemShape((2, 3, 4)), cut)

    def test_cut_permutation_accepts_numpy_integers(self):
        # numpy integers name parties; the sides come back sorted, as
        # tuples of Python ints, with their dimensions
        cut = ((np.int64(2), np.uint8(0)), [np.int32(1)])
        left, right, dl, dr = _cut_permutation(SystemShape((2, 3, 4)), cut)
        assert (left, right, dl, dr) == ((0, 2), (1,), 8, 3)
        assert all(type(p) is int for p in left + right)


class TestCanonicalStates:
    def test_w_amplitudes(self):
        amps = w_state().amplitudes
        assert np.allclose(amps[[1, 2, 4]], 1 / np.sqrt(3), atol=1e-12)
        assert np.allclose(amps[[0, 3, 5, 6, 7]], 0, atol=1e-12)

    def test_ghz_amplitudes(self):
        amps = ghz_state().amplitudes
        assert np.allclose(amps[[0, 7]], 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(amps[1:7], 0, atol=1e-12)

    def test_max_entangled_2(self):
        amps = max_entangled(2).amplitudes
        assert np.allclose(amps[[0, 3]], 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(amps[[1, 2]], 0, atol=1e-12)

    def test_max_entangled_is_two_party_ghz(self):
        for d in range(2, 7):
            assert (max_entangled(d).amplitudes.tobytes()
                    == ghz_state(2, d).amplitudes.tobytes())

    def test_dispatcher(self):
        assert canonical_state("ghz", n=4).shape.local_dims == (2, 2, 2, 2)
        with pytest.raises(UnsupportedError):
            canonical_state("w", n=4)

    @pytest.mark.parametrize("kind, params, want", [
        ("ghz", {}, lambda: ghz_state()),
        ("GHZ_N", {"n": 4, "d": 3}, lambda: ghz_state(4, 3)),
        ("w", {"n": 3, "d": 2}, w_state), ("W3", {}, w_state),
        ("maxent", {}, lambda: max_entangled(2)),
        ("Max_Entangled", {"d": 3}, lambda: max_entangled(3)),
        ("maxentangled_d", {"d": 2}, lambda: max_entangled(2)),
        ("z", {}, lambda: z_mixture(0.5)),
        ("Z", {"n": 3, "d": 2, "p": 0.3}, lambda: z_mixture(0.3)),
        ("basis", {"dims": (2, 3), "index": 4},
         lambda: basis_state(SystemShape((2, 3)), 4))])
    def test_dispatcher_spellings_and_defaults(self, kind, params, want):
        # every spelling, case folded, gives its constructor's bits
        got, want = canonical_state(kind, **params), want()
        assert type(got) is type(want) and got.shape == want.shape
        data = "amplitudes" if isinstance(got, PureState) else "entries"
        assert getattr(got, data).tobytes() == getattr(want, data).tobytes()

    @pytest.mark.parametrize("kind", ["FOO", "Ghz3", "foo", " ghz"])
    def test_unknown_kind_named_as_given(self, kind):
        # the message lists the spellings and quotes the kind unfolded
        with pytest.raises(InvariantError, match=re.escape(
                "one of 'ghz', 'ghz_n', 'w', 'w3', 'maxent', 'max_entangled', "
                f"'maxentangled_d', 'z', 'basis', got {kind!r}")):
            canonical_state(kind)

    @pytest.mark.parametrize("kind, params, name", [
        ("ghz", {"p": 0.3}, "p"), ("maxent", {"n": 5}, "n"),
        ("w", {"p": 0.5}, "p"), ("z", {"dims": (2, 2, 2)}, "dims"),
        ("basis", {"dims": (2,), "index": 0, "d": 2}, "d"),
        ("ghz", {"index": 0, "p": 0.3}, "index")])
    def test_dispatcher_kinds_take_only_their_own_parameters(self, kind,
                                                             params, name):
        # the first foreign parameter in sorted order is named
        with pytest.raises(InvariantError, match=f"^{name} must not be given "
                           f"for a {kind} state"):
            canonical_state(kind, **params)

    @pytest.mark.parametrize("kind, params", [
        ("w", {"d": 3}), ("w", {"n": 4}), ("w", {"n": 2, "d": 3}),
        ("z", {"n": 4}), ("z", {"d": 3, "p": 0.2})])
    def test_w_and_z_are_three_qubit_states(self, kind, params):
        with pytest.raises(UnsupportedError, match="only implemented for 3 qubits"):
            canonical_state(kind, **params)


class TestZMixture:
    def test_endpoints(self):
        assert np.allclose(z_mixture(0.0).entries,
                           ghz_state().density().entries, atol=1e-12)
        assert np.allclose(z_mixture(1.0).entries,
                           w_state().density().entries, atol=1e-12)

    def test_spectrum(self):
        # W and GHZ are orthogonal, so the spectrum is exactly {p, 1-p, 0...}
        w = np.linalg.eigvalsh(z_mixture(0.3).entries)
        assert np.allclose(sorted(w)[-2:], [0.3, 0.7], atol=1e-12)
        assert np.allclose(sorted(w)[:-2], 0, atol=1e-12)

    def test_range_check(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvariantError):
                z_mixture(bad)


class TestPurify:
    def test_z_mixture_form(self):
        p = 0.7
        psi = purify(z_mixture(p), (2,))
        expect = np.sqrt(p) * np.kron(w_state().amplitudes, [1, 0]) \
            + np.sqrt(1 - p) * np.kron(ghz_state().amplitudes, [0, 1])
        fid = abs(np.vdot(expect, psi.amplitudes))
        assert fid == pytest.approx(1, abs=1e-9)

    def test_pure_input(self, rng):
        psi = random_pure(Q3, rng)
        pur = purify(psi.density(), (2,))
        expect = np.kron(psi.amplitudes, [1, 0])
        assert abs(abs(np.vdot(expect, pur.amplitudes)) - 1) < 1e-9

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            rho = random_density(Q3, rng)
            pur = purify(rho, (2, 2, 2))
            back = partial_trace(pur.density(), {0, 1, 2})
            assert np.max(np.abs(back.entries - rho.entries)) < 1e-10

    def test_ancilla_too_small(self, rng):
        rho = random_density(SystemShape((2, 2)), rng)  # rank 4
        with pytest.raises(InvariantError):
            purify(rho, (2,))

    def test_ancilla_states_follow_spectral_ensemble(self):
        # ancilla basis state mu conditions the system on ensemble element
        # mu with weight probabilities[mu], equal eigenvalues included
        # (I/4 once paired them in the reverse order)
        q2 = SystemShape((2, 2))
        rank3 = random_density(SystemShape((2, 3)), np.random.default_rng(3), rank=3)
        for rho in (DensityMatrix(q2, np.eye(4) / 4),
                    DensityMatrix(q2, np.diag([0.5, 0.25, 0.25, 0.0])),
                    z_mixture(0.5), rank3):
            ens = spectral_ensemble(rho)
            d = rho.shape.total_dim
            m = purify(rho, (d,)).amplitudes.reshape(d, d)
            for mu in range(d):
                weight = np.linalg.norm(m[:, mu]) ** 2
                if mu >= len(ens.states):
                    assert weight == 0
                    continue
                assert weight == pytest.approx(ens.probabilities[mu], abs=1e-12)
                cond = PureState(rho.shape, m[:, mu] / np.sqrt(weight))
                assert cond.equals_up_to_phase(ens.states[mu])


class TestEigensystem:
    @pytest.mark.parametrize("dims, rank", [((2, 2), 1), ((2, 2), 3),
                                            ((2, 3), 2), ((2, 2, 2), 5)])
    def test_support_only(self, dims, rank):
        rng = np.random.default_rng(sum(dims) * 10 + rank)
        rho = random_density(SystemShape(dims), rng, rank=rank)
        w, v = rho.eigensystem()
        assert len(w) == rank and v.shape == (rho.shape.total_dim, rank)
        assert np.all(w > RANK_TOL) and np.all(w[:-1] >= w[1:])
        assert np.max(np.abs((v * w) @ v.conj().T - rho.entries)) <= ATOL
        assert rho.rank() == len(w) == len(spectral_ensemble(rho).states)

    def test_equal_eigenvalues_keep_deterministic_order(self):
        rho = DensityMatrix(SystemShape((2, 2)), np.diag([0.25, 0.5, 0.25, 0.0]))
        w, v = rho.eigensystem()
        assert w.tolist() == [0.5, 0.25, 0.25]
        assert np.array_equal(v, np.eye(4)[:, [1, 0, 2]])

    def test_stacked_states_checked(self):
        # _pure_states runs PureState's checks once for the whole stack
        rows = np.eye(8, dtype=complex)[:3]
        states = _pure_states(Q3, rows)
        assert [s.amplitudes.tolist() for s in states] == rows.tolist()
        nan = rows.copy()
        nan[1, 1] = np.nan
        for bad, message in ((rows * 2, "not normalized"), (nan, "finite"),
                             (rows[:, :4], "length 8"), (rows[0], "length 8")):
            with pytest.raises(InvariantError, match=message):
                _pure_states(Q3, bad)

    @staticmethod
    def _corpus():
        """Three-qubit densities: z_mixture(p) under seeded local unitaries
        (p = 0.5 has a degenerate support), a pure state's density (a
        7-dimensional null cluster), a rank-3 separable mixture, a
        full-rank density and one whose cluster straddles RANK_TOL."""
        rng = np.random.default_rng(33)

        def local_unitary():
            return np.kron(np.kron(random_unitary(2, rng), random_unitary(2, rng)),
                           random_unitary(2, rng))

        def rotated(m, u):
            return DensityMatrix(Q3, u @ m @ u.conj().T, symmetrize=True)

        corpus = [rotated(z_mixture(p).entries, local_unitary())
                  for p in (0.1, 0.5, 0.9)]
        corpus.append(random_pure(Q3, rng).density())
        products = [random_pure(Q1, rng) for _ in range(9)]
        separable = sum(
            w * tensor_product(tensor_product(a, b), c).density().entries
            for w, (a, b, c) in zip((0.5, 0.3, 0.2),
                                    zip(*[iter(products)] * 3)))
        corpus.append(DensityMatrix(Q3, separable))
        corpus.append(random_density(Q3, rng))
        low = np.array([0.0, 0.0, 5e-11, 1.5e-10, 6e-10])
        spectrum = np.concatenate([low, [0.3, 0.3, 0.4 - low.sum()]])
        corpus.append(rotated(np.diag(spectrum), random_unitary(8, rng)))
        return corpus

    def test_matches_full_settling(self):
        # the support's eigenpairs, rank() and purify are those of the
        # rule that settles every cluster (deterministic_eigh, then the
        # RANK_TOL cut), byte for byte
        corpus = self._corpus()
        ranks = [rho.rank() for rho in corpus]
        assert ranks == [2, 2, 2, 1, 3, 8, 5]
        straddles = False
        for rho, rank in zip(corpus, ranks, strict=True):
            w_all = np.linalg.eigvalsh(rho.entries)
            ends = np.flatnonzero(np.diff(w_all) > DEGENERACY_TOL) + 1
            straddles |= any(w_all[i] <= RANK_TOL < w_all[j - 1]
                             for i, j in zip([0, *ends], [*ends, 8]))
            w_ref, v_ref = deterministic_eigh(rho.entries)
            order = np.argsort(-w_ref, kind="stable")
            order = order[w_ref[order] > RANK_TOL]
            w_ref, v_ref = w_ref[order], v_ref[:, order]
            w, v = rho.eigensystem()
            assert w.tobytes() == w_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()
            assert rank == len(w_ref)
            m = np.zeros((8, 8), dtype=complex)
            m[:, :rank] = v_ref * np.sqrt(w_ref)
            psi = m.reshape(-1)
            assert purify(rho, (8,)).amplitudes.tobytes() == \
                (psi / np.linalg.norm(psi)).tobytes()
        assert straddles


def _reference_deterministic_eigh(h):
    """deterministic_eigh as first written: a scan for the clusters and the
    D x D position matrix, kept to pin the bytes of the closed form."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(h)
    pos = np.diag(np.arange(h.shape[0], dtype=float))
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[j - 1]) <= DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            b = block.conj().T @ pos @ block
            bw, bv = np.linalg.eigh((b + b.conj().T) / 2)
            v[:, i:j] = block @ bv
        i = j
    return w, _fix_phases(v)


def _cluster_sizes(w):
    """The lengths of the runs of ascending w with gaps <= DEGENERACY_TOL."""
    sizes = [1]
    for gap in np.diff(w):
        if gap <= DEGENERACY_TOL:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _eigh_corpus():
    """Seeded Hermitian matrices at D = 1..39, 13 per D: six with a generic
    spectrum, seven with a spectrum drawn from a few rounded levels, one of
    them a single level so that a cluster spans the whole space."""
    rng = np.random.default_rng(29)
    corpus = []
    for dim in range(1, 40):
        for k in range(13):
            if k < 6:
                w = rng.standard_normal(dim)
            else:
                levels = 1 if k == 6 else int(rng.integers(1, dim + 1))
                w = rng.choice(np.round(rng.standard_normal(levels), 2), dim)
            u = random_unitary(dim, rng)
            corpus.append((u * w) @ u.conj().T)
    corpus += [np.eye(8) / 8, np.eye(64) / 64, z_mixture(0.5).entries,
               ghz_state().density().entries,
               ghz_state(3, 3).density().entries]
    return corpus


class TestDeterministicEigh:
    def test_matches_reference_bytes(self):
        corpus = _eigh_corpus()
        assert len(corpus) >= 500
        sizes = set()
        for h in corpus:
            w, v = deterministic_eigh(h)
            w_ref, v_ref = _reference_deterministic_eigh(h)
            assert w.tobytes() == w_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()
            sizes.update(_cluster_sizes(w))
        # clusters of every size up to the largest D occur
        assert sizes >= set(range(1, 40))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_gap_ends_a_cluster(self, entry):
        # eigh gives NaN eigenvalues here; a NaN gap is not <=
        # DEGENERACY_TOL, so it ends a cluster in both forms
        h = np.diag([entry, 1.0, 1.0, 1.0]).astype(complex)
        w, v = deterministic_eigh(h)
        w_ref, v_ref = _reference_deterministic_eigh(h)
        assert np.isnan(w[0])
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()

    def test_reproducible_on_degenerate_input(self):
        h = z_mixture(0.5).entries
        w1, v1 = deterministic_eigh(h)
        w2, v2 = deterministic_eigh(h)
        assert np.array_equal(v1, v2)

    def test_recovers_w_ghz_from_equal_mixture(self):
        _, v = deterministic_eigh(z_mixture(0.5).entries)
        top = v[:, -2:]
        assert abs(abs(np.vdot(top[:, 0], w_state().amplitudes)) - 1) < 1e-9
        assert abs(abs(np.vdot(top[:, 1], ghz_state().amplitudes)) - 1) < 1e-9

    def test_batched_phase_fix_matches_single_calls(self, rng):
        vecs = rng.standard_normal((3, 4, 6, 6)) + 1j * rng.standard_normal((3, 4, 6, 6))
        vecs[1, 2, :, 3] = 0
        out = _fix_phases(vecs)
        for i in range(3):
            for j in range(4):
                assert out[i, j].tobytes() == _fix_phases(vecs[i, j]).tobytes()
        assert np.array_equal(out[1, 2, :, 3], vecs[1, 2, :, 3])
        # the phase comes from the scalar abs() of each column's peak, as
        # deterministic_eigh always took it
        for i, j, c in [(0, 0, 0), (2, 3, 5), (1, 1, 2)]:
            col = vecs[i, j, :, c]
            peak = col[np.argmax(np.abs(col))]
            assert out[i, j, :, c].tobytes() == (col / (peak / abs(peak))).tobytes()
        peaks = np.take_along_axis(out, np.argmax(np.abs(out), axis=-2)[..., None, :], -2)
        peaks = peaks[np.abs(peaks) > 0]
        assert np.all(peaks.real > 0)
        assert np.all(np.abs(peaks.imag) <= 1e-15 * peaks.real)   # real to rounding
