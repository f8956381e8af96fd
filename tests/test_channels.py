import numpy as np
import pytest

from lcstates import (DensityMatrix, EnvironmentGram, InvariantError,
                      LocalChannel, SystemShape, UnsupportedError,
                      adjoint_channel, apply_product_channel,
                      channel_from_environment_gram, compose,
                      dephasing_channel, depolarizing_channel,
                      environment_gram_from_channel, ghz_state,
                      identity_channel, parameter_counts, partial_trace,
                      random_local_channel, standard_noise)
from lcstates.channels import (_apply_leading, _apply_product_channel_matrix,
                               _from_pairs, _rotate, _to_pairs,
                               _weyl_operators,
                               apply_adjoint_product_channel, liouville)
from conftest import random_density, random_pure, random_unitary


class TestLocalChannel:
    def test_completeness_enforced(self):
        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0] = np.diag([1.0, 0.5])
        with pytest.raises(InvariantError):
            LocalChannel(2, bad)

    @pytest.mark.parametrize("kraus", [np.eye(2), np.eye(3)[None],
                                       np.zeros((1, 2, 3)), np.zeros((2,))],
                             ids=["one-matrix", "wrong-dim", "not-square",
                                  "vector"])
    def test_kraus_stack_shape(self, kraus):
        with pytest.raises(InvariantError, match=r"^expected Kraus stack of "
                           r"shape \(e, 2, 2\)"):
            LocalChannel(2, kraus)

    def test_env_dim_cap(self):
        with pytest.raises(InvariantError):
            LocalChannel(2, np.zeros((5, 2, 2)))

    def test_non_finite_rejected(self):
        bad = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        bad[1, 0, 0] = np.nan
        with pytest.raises(InvariantError, match="finite"):
            LocalChannel(2, bad)

    def test_constructors_copy_the_callers_array(self):
        # the caller's array stays writable, and changing it leaves the
        # validated channel and Gram matrix as they were
        k = np.eye(2, dtype=complex)[None]
        c = LocalChannel(2, k)
        k[0, 0, 0] = 3
        assert c.completeness_residual() == 0.0
        g = environment_gram_from_channel(identity_channel(2)).gram.copy()
        gram = EnvironmentGram(2, g)
        g[0, 0] = 9
        assert gram.gram[0, 0] == 1.0

    @pytest.mark.parametrize("dim, d", [(2.0, 2), (True, 1), ("2", 2), (2.5, 2)])
    def test_dim_must_be_an_integer(self, dim, d):
        # 2.0 and True used to be accepted, and save_channel then wrote a
        # file that load_channel rejects; EnvironmentGram(2.0, ...) raised
        # a bare TypeError
        kraus = np.eye(d)[None]
        gram = environment_gram_from_channel(LocalChannel(d, kraus)).gram
        with pytest.raises(InvariantError, match="channel dim must be an integer"):
            LocalChannel(dim, kraus)
        with pytest.raises(InvariantError, match="channel dim must be an integer"):
            EnvironmentGram(dim, gram)

    def test_numpy_integer_dim_stored_as_int(self):
        gram = environment_gram_from_channel(identity_channel(2)).gram
        for obj in (LocalChannel(np.int64(2), np.eye(2)[None]),
                    random_local_channel(np.int64(2), 2, 1),
                    EnvironmentGram(np.int64(2), gram)):
            assert obj.dim == 2 and type(obj.dim) is int

    def test_unitary_preserves_purity(self, rng):
        for seed in range(20):
            c = random_local_channel(3, 1, seed)
            psi = random_pure(SystemShape((3,)), rng)
            out = DensityMatrix(psi.shape, c(psi.density().entries))
            assert abs(out.purity() - 1.0) < 1e-9


class TestEnvironmentGram:
    def test_identity_channel_gram(self):
        # e_ij = delta_ij * (fixed unit vector): G[(i,i),(i',i')] = 1
        g = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for ip in range(2):
                g[i * 2 + i, ip * 2 + ip] = 1.0
        c = channel_from_environment_gram(EnvironmentGram(2, g))
        m = np.array([[0.3, 0.4j], [-0.4j, 0.7]])
        assert np.max(np.abs(c(m) - m)) < 1e-10

    def test_dephasing_gram(self):
        # e_ij = delta_ij |i>: mutually orthogonal environment states
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0] = g[3, 3] = 1.0
        c = channel_from_environment_gram(EnvironmentGram(2, g))
        # oracle: evaluate the action formula on a 2x2 input directly
        m = np.array([[0.3, 0.4j], [-0.4j, 0.7]])
        out = c(m)
        assert np.allclose(out, np.diag([0.3, 0.7]), atol=1e-10)

    def test_tp_violation_rejected(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0] = 2.0   # sum_j G[(0,j),(0,j)] = 2 != 1
        g[3, 3] = 1.0
        with pytest.raises(InvariantError, match="trace preservation"):
            EnvironmentGram(2, g)

    def test_psd_violation_rejected(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0] = g[3, 3] = 1.0
        g[0, 3] = g[3, 0] = 1.5   # |overlap| > norms: not PSD
        with pytest.raises(InvariantError, match="positive semidefinite"):
            EnvironmentGram(2, g)

    def test_roundtrip(self):
        for seed in range(100):
            c = random_local_channel(2, 4, seed)
            g = environment_gram_from_channel(c)
            c2 = channel_from_environment_gram(g)
            g2 = environment_gram_from_channel(c2)
            assert np.max(np.abs(g.gram - g2.gram)) < 1e-8


class TestApplyProductChannel:
    def test_identity(self, rng):
        rho = random_density(SystemShape((2, 2, 2)), rng)
        out = apply_product_channel([identity_channel(2)] * 3, rho)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_full_depolarizing_ghz(self):
        chans = [depolarizing_channel(2, 1.0)] * 3
        out = apply_product_channel(chans, ghz_state().density())
        assert np.max(np.abs(out.entries - np.eye(8) / 8)) < 1e-10

    def test_depolarize_first_qubit(self):
        chans = [depolarizing_channel(2, 1.0), identity_channel(2),
                 identity_channel(2)]
        out = apply_product_channel(chans, ghz_state().density())
        marg = partial_trace(out, {0})
        assert np.max(np.abs(marg.entries - np.eye(2) / 2)) < 1e-10
        # coherences between party-0 levels vanish: the (0,7) corner is dead
        assert abs(out.entries[0, 7]) < 1e-12

    def test_full_dephasing_ghz(self):
        chans = [dephasing_channel(2, 1.0)] * 3
        out = apply_product_channel(chans, ghz_state().density())
        expect = np.zeros((8, 8), dtype=complex)
        expect[0, 0] = expect[7, 7] = 0.5
        assert np.max(np.abs(out.entries - expect)) < 1e-10

    def test_trace_and_psd_preserved(self, rng):
        shape = SystemShape((2, 3))
        for seed in range(100):
            chans = [random_local_channel(2, 3, seed), random_local_channel(3, 2, seed + 1)]
            rho = random_density(shape, rng)
            out = apply_product_channel(chans, rho)   # constructor re-validates
            assert abs(np.trace(out.entries).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.entries).min() > -1e-8

    def test_dimension_mismatch_named(self):
        rho = ghz_state().density()
        chans = [identity_channel(2), identity_channel(3), identity_channel(2)]
        with pytest.raises(InvariantError, match="party 1"):
            apply_product_channel(chans, rho)

    def test_wrong_channel_count(self):
        for count in (1, 2, 4):
            chans = [identity_channel(2)] * count
            with pytest.raises(InvariantError, match="one channel per party"):
                apply_product_channel(chans, ghz_state().density())
            # the raw adjoint used to skip the missing parties, and raise
            # IndexError on a fourth channel
            with pytest.raises(InvariantError, match="one channel per party"):
                apply_adjoint_product_channel(chans, np.eye(8), (2, 2, 2))


# (2, 3, 2) and (3, 2) have parties of unequal dimension, and L != R
# around every party but the middle one
KERNEL_SHAPES = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2))


def _embedded_kraus(kraus, dims, k):
    """Kraus operators of channel k as explicit D x D Kronecker products."""
    left = np.eye(int(np.prod(dims[:k])))
    right = np.eye(int(np.prod(dims[k + 1:])))
    return [np.kron(np.kron(left, km), right) for km in kraus]


def _one_party(vec, s, dims, k):
    """Party k's Liouville matrix s alone applied to a paired vector: one
    kernel step at party k, a rotation at every other party."""
    for j, d in enumerate(dims):
        vec = _apply_leading(vec, s) if j == k else _rotate(vec, d * d)
    return vec


def _kron_reference(channels, mat, dims, adjoint=False):
    out = mat
    for k, c in enumerate(channels):
        ops = _embedded_kraus(c.kraus, dims, k)
        if adjoint:
            out = sum(op.conj().T @ out @ op for op in ops)
        else:
            out = sum(op @ out @ op.conj().T for op in ops)
    return out


def _kernel_cases(seed):
    """(dims, channels) at every kernel shape with every party's e in
    {1, d, d^2}, d that party's dimension."""
    for dims in KERNEL_SHAPES:
        for power in range(3):
            chans = [random_local_channel(d, d ** power, seed + 10 * k + d ** power)
                     for k, d in enumerate(dims)]
            yield dims, chans


class TestKernel:
    def test_forward_matches_kronecker_reference(self, rng):
        for dims, chans in _kernel_cases(100):
            rho = random_density(SystemShape(dims), rng)
            got = apply_product_channel(chans, rho).entries
            ref = _kron_reference(chans, rho.entries, dims)
            assert np.max(np.abs(got - ref)) < 1e-12, dims

    def test_adjoint_matches_kronecker_reference(self, rng):
        for dims, chans in _kernel_cases(200):
            d = int(np.prod(dims))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            got = apply_adjoint_product_channel(chans, x, dims)
            ref = _kron_reference(chans, x, dims, adjoint=True)
            assert np.max(np.abs(got - ref)) < 1e-12, dims

    def test_trace_duality(self, rng):
        for dims, chans in _kernel_cases(300):
            shape = SystemShape(dims)
            rho = random_density(shape, rng)
            sig = random_density(shape, rng)
            lhs = np.trace(rho.entries @ apply_product_channel(chans, sig).entries)
            rhs = np.trace(apply_adjoint_product_channel(chans, rho.entries, dims)
                           @ sig.entries)
            assert abs(lhs - rhs) < 1e-12, dims


    def test_batched_equals_per_element(self, rng):
        # a leading batch axis on the operator and the Liouville matrices
        # gives each element exactly what the unbatched call gives it, at
        # every step of a product (each party's pair axis leading in turn)
        for dims in KERNEL_SHAPES:
            big = int(np.prod(dims))
            kraus = [np.stack([random_local_channel(d, d, 40 + b).kraus
                               for b in range(3)]) for d in dims]
            sups = [liouville(kr) for kr in kraus]
            mats = _to_pairs(np.stack([random_density(SystemShape(dims), rng).entries
                                       for _ in range(3)]), dims)
            vec, one, shared = mats, list(mats), mats[0]
            for k, d in enumerate(dims):
                assert sups[k].shape == (3, d * d, d * d)
                got = _apply_leading(vec, sups[k])
                shared_got = _apply_leading(shared, sups[k])
                assert got.shape == shared_got.shape == (3, big * big)
                for b in range(3):
                    assert np.array_equal(sups[k][b], liouville(kraus[k][b]))
                    one[b] = _apply_leading(one[b], sups[k][b])
                    assert np.array_equal(got[b], one[b]), (dims, k, b)
                    assert np.array_equal(shared_got[b],
                                          _apply_leading(shared, sups[k][b]))
                vec, shared = got, shared_got[0]
            full = _apply_product_channel_matrix(sups, mats)
            for b in range(3):
                one = _apply_product_channel_matrix([s[b] for s in sups], mats[b])
                assert np.array_equal(full[b], one), (dims, b)

    def test_broadcast_liouville_stacks(self, rng):
        # the precursor move's stacked pair: vectors (B, 2, D^2) against
        # Liouville matrices (B, 1, d^2, d^2), each element bit for bit the
        # unbatched call
        for dims in KERNEL_SHAPES:
            big = int(np.prod(dims))
            sups = [np.stack([liouville(random_local_channel(d, d, 50 + b).kraus)
                              for b in range(3)]) for d in dims]
            x = rng.standard_normal((3, 2, big, big)) \
                + 1j * rng.standard_normal((3, 2, big, big))
            vec = _to_pairs(x, dims)
            got = _apply_product_channel_matrix([s[:, None] for s in sups], vec)
            assert got.shape == (3, 2, big * big)
            for b in range(3):
                for i in range(2):
                    one = _apply_product_channel_matrix([s[b] for s in sups],
                                                        vec[b, i])
                    assert np.array_equal(got[b, i], one), (dims, b, i)

    def test_each_party_matches_kronecker_reference(self, rng):
        # one party's Liouville matrix S alone (a kernel step at that party,
        # a rotation at every other one), forward and adjoint (S^H), against
        # sum_m K_m X K_m^dag and sum_m K_m^dag X K_m with K_m embedded by
        # np.kron; batched on both sides
        for dims in KERNEL_SHAPES:
            big = int(np.prod(dims))
            x = rng.standard_normal((3, big, big)) + 1j * rng.standard_normal((3, big, big))
            vecs = _to_pairs(x, dims)
            for k, d in enumerate(dims):
                kraus = np.stack([random_local_channel(d, d, 60 + b).kraus
                                  for b in range(3)])
                sups = liouville(kraus)
                forward = _from_pairs(_one_party(vecs, sups, dims, k), dims)
                adjoint = _from_pairs(_one_party(
                    vecs, sups.conj().swapaxes(-1, -2), dims, k), dims)
                for b in range(3):
                    ops = _embedded_kraus(kraus[b], dims, k)
                    ref = sum(op @ x[b] @ op.conj().T for op in ops)
                    ref_adj = sum(op.conj().T @ x[b] @ op for op in ops)
                    assert np.max(np.abs(forward[b] - ref)) < 1e-12, (dims, k)
                    assert np.max(np.abs(adjoint[b] - ref_adj)) < 1e-12, (dims, k)

    def test_empty_batch(self):
        # a lock step whose restarts all died applies the kernel to no rows
        for dims in KERNEL_SHAPES:
            big = int(np.prod(dims))
            empty = np.zeros((0, big * big), dtype=complex)
            sups = [np.zeros((0, d * d, d * d), dtype=complex) for d in dims]
            for d, s in zip(dims, sups):
                assert _apply_leading(empty, s).shape == (0, big * big)
                assert _rotate(empty, d * d).shape == (0, big * big)
            assert _apply_product_channel_matrix(sups, empty).shape == (0, big * big)

    def test_steps_restore_layout(self, rng):
        # after j kernel steps the pair axes run j..n-1, 0..j-1, each
        # applied axis holding its party's channel; after n steps the
        # layout is the original one, and n rotations give the vector back
        # bit for bit
        for dims in KERNEL_SHAPES:
            n, big = len(dims), int(np.prod(dims))
            x = rng.standard_normal((2, big, big)) + 1j * rng.standard_normal((2, big, big))
            vec = _to_pairs(x, dims)
            sups = [liouville(random_local_channel(d, d, 70 + d).kraus) for d in dims]
            pairs = tuple(d * d for d in dims)
            ref = vec.reshape(2, *pairs)
            out = rotated = vec
            for j, (d, s) in enumerate(zip(dims, sups)):
                ref = np.moveaxis(np.tensordot(s, ref, axes=([1], [j + 1])), 0, j + 1)
                out, rotated = _apply_leading(out, s), _rotate(rotated, d * d)
                order = [0] + [1 + (j + 1 + a) % n for a in range(n)]
                want = ref.transpose(order).reshape(2, big * big)
                assert np.max(np.abs(out - want)) < 1e-12, (dims, j)
                assert np.array_equal(rotated, vec.reshape(2, *pairs).transpose(
                    order).reshape(2, big * big)), (dims, j)
            assert np.array_equal(rotated, vec), dims

    def test_pairs_round_trip(self, rng):
        # entry [(i_1, j_1), ..., (i_n, j_n)] of the paired vector is
        # mat[i, j], and _from_pairs undoes _to_pairs bit for bit
        for dims in KERNEL_SHAPES:
            big = int(np.prod(dims))
            x = rng.standard_normal((4, big, big)) + 1j * rng.standard_normal((4, big, big))
            vec = _to_pairs(x, dims)
            assert vec.shape == (4, big * big)
            assert np.array_equal(_from_pairs(vec, dims), x), dims
            t = vec.reshape(4, *np.repeat(dims, 2))
            for i, j in [(0, big - 1), (big - 1, 0), (big // 2, 1)]:
                idx = [a for pair in zip(np.unravel_index(i, dims),
                                         np.unravel_index(j, dims)) for a in pair]
                assert np.array_equal(t[(slice(None), *idx)], x[:, i, j]), dims


class TestAdjoint:
    def test_unitary_adjoint(self, rng):
        u = random_unitary(2, rng)
        c = LocalChannel(2, u[None, :, :])
        adj = adjoint_channel(c)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.max(np.abs(adj(x) - u.conj().T @ x @ u)) < 1e-12

    def test_trace_duality(self, rng):
        for seed in range(100):
            c = random_local_channel(3, 4, seed)
            adj = adjoint_channel(c)
            a = random_density(SystemShape((3,)), rng).entries
            b = random_density(SystemShape((3,)), rng).entries
            assert abs(np.trace(a @ c(b)) - np.trace(adj(a) @ b)) < 1e-10

    def test_unital(self):
        for seed in range(20):
            c = random_local_channel(2, 4, seed)
            adj = adjoint_channel(c)
            assert np.max(np.abs(adj(np.eye(2)) - np.eye(2))) < 1e-10


class TestBoundary:
    """Malformed arguments at the channel API are InvariantErrors; the
    message names the argument, or the party whose channel it is."""

    QUBIT = depolarizing_channel(2, 0.3)

    @pytest.mark.parametrize("mat, dims, match", [
        (np.eye(4), (2, 2, 2), "^mat must be 8x8"),
        (np.ones(64), (2, 2, 2), "^mat must be 8x8"),
        (np.full((8, 8), np.nan), (2, 2, 2), "finite"),
        (np.eye(8), (2, 2, "2"), "^dims must be"),
        (np.eye(8), (2, 2, 2.0), "^dims must be"),
        (np.eye(8), 8, "^dims must be")])
    def test_adjoint_product_channel(self, mat, dims, match):
        with pytest.raises(InvariantError, match=match):
            apply_adjoint_product_channel([self.QUBIT] * 3, mat, dims)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("m, match", [
        (np.eye(3), "^m must be 2x2"),
        (np.ones(4), "^m must be 2x2"),
        (np.full((2, 2), np.nan), "finite")])
    def test_local_channel_call(self, adjoint, m, match):
        c = adjoint_channel(self.QUBIT) if adjoint else self.QUBIT
        with pytest.raises(InvariantError, match=match):
            c(m)

    @pytest.mark.parametrize("channels, party", [
        ([1, 2, 3], 0),
        ([QUBIT, "x", QUBIT], 1),
        ([QUBIT, QUBIT, adjoint_channel(QUBIT)], 2)])
    def test_product_channel_entries(self, channels, party):
        with pytest.raises(InvariantError, match=f"^channel on party {party} "
                           "must be a LocalChannel"):
            apply_product_channel(channels, ghz_state().density())

    @pytest.mark.parametrize("outer, inner, name", [
        (QUBIT, "x", "inner"), ("x", QUBIT, "outer"),
        (QUBIT, adjoint_channel(QUBIT), "inner")])
    def test_compose(self, outer, inner, name):
        with pytest.raises(InvariantError, match=f"^{name} must be a LocalChannel"):
            compose(outer, inner)


class TestRandomChannel:
    def test_env_one_is_unitary(self):
        c = random_local_channel(4, 1, 11)
        u = c.kraus[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    def test_completeness_over_seeds(self):
        for seed in range(1000):
            c = random_local_channel(2, 3, seed)
            assert c.completeness_residual() <= 1e-12

    def test_seed_determinism(self):
        a = random_local_channel(3, 5, 77)
        b = random_local_channel(3, 5, 77)
        assert np.array_equal(a.kraus, b.kraus)

    def test_env_range(self):
        with pytest.raises(InvariantError):
            random_local_channel(2, 5, 0)

    @pytest.mark.parametrize("env_dim", [1.5, True, "2", 0])
    def test_env_dim_must_be_an_integer(self, env_dim):
        # 1.5 and True used to raise a bare TypeError from numpy
        with pytest.raises(InvariantError, match="env_dim must be an integer"):
            random_local_channel(2, env_dim, 0)

    def test_numpy_integer_env_dim(self):
        a = random_local_channel(2, np.int64(3), 9)
        assert np.array_equal(a.kraus, random_local_channel(2, 3, 9).kraus)


class TestComposition:
    def test_mismatched_dimensions(self):
        with pytest.raises(InvariantError, match="matching dimensions"):
            compose(identity_channel(2), identity_channel(3))

    def test_composed_equals_sequential(self, rng):
        # (2, 2, 3), then every (d, e_outer, e_inner) with e in {1, d, d^2};
        # the result is a minimal Kraus set, one operator for two unitaries
        cases = [(2, 2, 3)] + [(d, e1, e2) for d in (2, 3, 4)
                               for e1 in (1, d, d * d) for e2 in (1, d, d * d)]
        for d, e_outer, e_inner in cases:
            a = random_local_channel(d, e_outer, 5)
            b = random_local_channel(d, e_inner, 6)
            both = compose(a, b)
            x = random_density(SystemShape((d,)), rng).entries
            assert np.max(np.abs(both(x) - a(b(x)))) < 1e-10
            assert both.env_dim <= d * d
            if e_outer == e_inner == 1:
                assert both.env_dim == 1

    def test_gram_factors_follow_the_phase_rule(self):
        # each Kraus operator's environment row V[m, (i, j)] = K_m[j, i]
        # has a real positive largest-magnitude entry, as `_fix_phases`
        # leaves an eigenvector
        pairs = [(random_local_channel(d, e1, 10 + e1), random_local_channel(d, e2, 20 + e2))
                 for d in (2, 3) for e1 in (1, d, d * d) for e2 in (1, d, d * d)]
        kinds = {2: ("depolarizing", "dephasing", "amplitude_damping"),
                 3: ("depolarizing", "dephasing")}
        pairs += [(standard_noise(a, d, 0.3), standard_noise(b, d, 0.6))
                  for d in (2, 3) for a in kinds[d] for b in kinds[d]]
        for outer, inner in pairs:
            k = compose(outer, inner).kraus
            e, d, _ = k.shape
            rows = k.transpose(0, 2, 1).reshape(e, d * d)
            peaks = rows[np.arange(e), np.argmax(np.abs(rows), axis=1)]
            assert np.all(peaks.real > 0)
            assert np.all(np.abs(peaks.imag) <= 1e-15 * peaks.real)


def _reference_weyl_operators(d):
    """_weyl_operators as first written: X^a and Z^b both accumulated by
    matrix products, kept to pin the bytes of the closed form."""
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return ops


def _reference_dephasing_kraus(d, p):
    """dephasing_channel's Kraus stack as first written, one one-hot
    matrix at a time."""
    kraus = [np.sqrt(1 - p) * np.eye(d, dtype=complex)]
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = np.sqrt(p)
        kraus.append(e)
    return np.stack(kraus)


class TestStandardNoise:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_weyl_operators_match_reference_bytes(self, d):
        ops, ref = _weyl_operators(d), _reference_weyl_operators(d)
        assert len(ops) == len(ref) == d * d
        for a, b in zip(ops, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d", range(2, 8))
    def test_dephasing_matches_reference_bytes(self, d):
        for p in (0, 0.3, 0.7, 1):
            kraus = dephasing_channel(d, p).kraus
            assert kraus.tobytes() == _reference_dephasing_kraus(d, p).tobytes()

    def test_depolarizing_endpoint(self, rng):
        c = standard_noise("depolarizing", 3, 0.0)
        x = random_density(SystemShape((3,)), rng).entries
        assert np.max(np.abs(c(x) - x)) < 1e-12

    def test_depolarizing_formula(self, rng):
        c = standard_noise("depolarizing", 3, 0.4)
        x = random_density(SystemShape((3,)), rng).entries
        assert np.max(np.abs(c(x) - (0.6 * x + 0.4 * np.eye(3) / 3))) < 1e-10

    def test_dephasing_scales_offdiagonals(self, rng):
        c = standard_noise("dephasing", 2, 0.3)
        x = random_density(SystemShape((2,)), rng).entries
        out = c(x)
        assert abs(out[0, 1] - 0.7 * x[0, 1]) < 1e-12
        assert abs(out[0, 0] - x[0, 0]) < 1e-12

    def test_amplitude_damping_qubit_only(self):
        standard_noise("amplitude_damping", 2, 0.5)
        with pytest.raises(UnsupportedError):
            standard_noise("amplitude_damping", 3, 0.5)

    def test_strength_validated(self):
        with pytest.raises(InvariantError):
            standard_noise("depolarizing", 2, 1.5)
        with pytest.raises(InvariantError):
            standard_noise("unknown", 2, 0.5)


class TestParameterCounts:
    # oracle: independent integer arithmetic for the three closed forms
    @staticmethod
    def _oracle(n, d):
        pure = 2 * d ** n - 2
        return pure, pure + n * (d ** 4 - d ** 2), d ** (2 * n) - 1

    @pytest.mark.parametrize("n,d,expect", [
        (3, 2, (14, 50, 63, True)),
        (2, 2, (6, 30, 15, False)),
        (4, 2, (30, 78, 255, True)),
    ])
    def test_examples(self, n, d, expect):
        pc = parameter_counts(n, d)
        assert (pc.pure_dim, pc.lc_bound, pc.mixed_dim,
                pc.lc_strictly_smaller) == expect
        assert (pc.pure_dim, pc.lc_bound, pc.mixed_dim) == self._oracle(n, d)

    def test_bound_beats_mixed_for_three_plus_parties(self):
        for n in range(3, 9):
            for d in range(2, 5):
                pc = parameter_counts(n, d)
                assert pc.lc_bound < pc.mixed_dim

    def test_validation(self):
        with pytest.raises(InvariantError):
            parameter_counts(0, 2)
        with pytest.raises(InvariantError):
            parameter_counts(3, 1)
