import tracemalloc

import numpy as np
import pytest

from lcstates import (DensityMatrix, InvariantError, PureState, SystemShape,
                      apply_product_channel, basis_state, dephasing_channel,
                      depolarizing_channel, ghz_state, identity_channel,
                      lc_distance_search, lccc_obstruction_check,
                      max_entangled, precursor_optimal_for_channels,
                      random_local_channel, tensor_product, w_state,
                      z_mixture)
from lcstates.channels import (_apply_local, _apply_product_channel_matrix,
                               _column_view, _to_pairs, haar_isometry,
                               liouville)
from lcstates.states import deterministic_eigh
from lcstates import reach
from lcstates.reach import (LCConfiguration, _gram_objective, _gram_pair,
                            _line_objective, _party_gradient,
                            _polar_retract, _precursor_line, _run_lock_step, _starts,
                            _top_eigenvector, CONVERGED, MAX_ITERS, NOT_LCCC,
                            STEP_UNDERFLOW, LCCC_BIPARTITE, UNKNOWN)
from lcstates.locc import spectral_ensemble
from lcstates.slocc import classify_three_qubit
from conftest import random_density, random_pure, random_unitary

Q3 = SystemShape((2, 2, 2))


def tensor_unitary(rng):
    """A random local unitary U_A (x) U_B (x) U_C on three qubits."""
    a, b, c = (random_unitary(2, rng) for _ in range(3))
    return np.kron(np.kron(a, b), c)


def noisy_ghz():
    chans = [dephasing_channel(2, 0.3), depolarizing_channel(2, 0.2),
             identity_channel(2)]
    return apply_product_channel(chans, ghz_state().density())


def noisy_four_qubit_ghz():
    chans = [dephasing_channel(2, 0.3), depolarizing_channel(2, 0.2),
             identity_channel(2), identity_channel(2)]
    return apply_product_channel(chans, ghz_state(4, 2).density())


def noisy_qutrit_ghz():
    chans = [dephasing_channel(3, 0.3), depolarizing_channel(3, 0.2),
             identity_channel(3)]
    return apply_product_channel(chans, ghz_state(3, 3).density())


class TestPrecursorStep:
    def test_identity_channels_pure_target(self, rng):
        psi = random_pure(Q3, rng)
        got = precursor_optimal_for_channels([identity_channel(2)] * 3,
                                             psi.density())
        assert got.equals_up_to_phase(psi)

    def test_depolarizing_degenerate(self):
        chans = [depolarizing_channel(2, 1.0)] * 3
        a = precursor_optimal_for_channels(chans, z_mixture(0.3))
        b = precursor_optimal_for_channels(chans, z_mixture(0.3))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_adjoint_image_hermitian(self, rng):
        from lcstates.channels import apply_adjoint_product_channel
        for seed in range(100):
            chans = [random_local_channel(2, 2, seed + i) for i in range(3)]
            rho = random_density(Q3, rng)
            h = apply_adjoint_product_channel(chans, rho.entries, (2, 2, 2))
            assert np.max(np.abs(h - h.conj().T)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            precursor_optimal_for_channels([identity_channel(3)] * 3,
                                           z_mixture(0.5))

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_channel_count(self, count):
        # four channels for three parties used to raise IndexError, and
        # two were accepted, the third party treated as the identity
        chans = [identity_channel(2)] * count
        with pytest.raises(InvariantError, match="one channel per party"):
            precursor_optimal_for_channels(chans, z_mixture(0.5))
        with pytest.raises(InvariantError, match="one channel per party"):
            LCConfiguration(ghz_state(), tuple(chans))

    @pytest.mark.parametrize("channels, party", [
        (("a", "b", "c"), 0),
        ((identity_channel(2), identity_channel(2), None), 2)])
    def test_configuration_channels_are_local_channels(self, channels, party):
        with pytest.raises(InvariantError, match=f"^channel on party {party} "
                           "must be a LocalChannel"):
            LCConfiguration(ghz_state(), channels)

    @pytest.mark.parametrize("dim", [8, 16, 27])
    def test_top_eigenvectors_match_deterministic_eigh(self, dim):
        # bit for bit, on stacks of non-Hermitian matrices; at D = 8 one
        # element has a degenerate top pair (the tie-break path)
        rng = np.random.default_rng(dim)
        h = rng.standard_normal((200, dim, dim)) + 1j * rng.standard_normal((200, dim, dim))
        if dim == 8:
            h[0] = z_mixture(0.5).entries
        herm = (h + np.swapaxes(h.conj(), -1, -2)) / 2
        ref = np.stack([deterministic_eigh(m)[1][:, -1] for m in herm])
        ref = ref / np.linalg.norm(ref, axis=-1, keepdims=True)
        assert np.stack([_top_eigenvector(m) for m in h]).tobytes() == ref.tobytes()


def _others_applied(sups, sigma, dims, k):
    """Y_k: every party's Liouville matrix but party k's applied to sigma,
    in ascending party order."""
    y = _to_pairs(sigma, dims)
    for j, s in enumerate(sups):
        if j != k:
            y = _apply_local(y, s, dims, j)
    return y


class TestPartyGradient:
    SHAPES = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 2))

    def _objective(self, kraus, k, y, rho, dims):
        x = _apply_local(y, liouville(kraus), dims, k)
        return np.linalg.norm(x - _to_pairs(rho, dims)) ** 2

    @staticmethod
    def _party_inputs(dims, rng):
        """Random channels, sigma and rho, and each party's Y_k."""
        shape = SystemShape(dims)
        chans = [random_local_channel(d, d, 7 * j + len(dims))
                 for j, d in enumerate(dims)]
        sups = [liouville(c.kraus) for c in chans]
        sigma = random_pure(shape, rng).density().entries
        rho = random_density(shape, rng).entries
        return chans, sups, rho, [_others_applied(sups, sigma, dims, k)
                                  for k in range(len(dims))]

    def test_finite_difference(self, rng):
        # d f(K + eps E)/d eps = 2 Re sum_m <E_m, G_m> for any complex E
        for dims in self.SHAPES:
            chans, sups, rho, ys = self._party_inputs(dims, rng)
            for k, y in enumerate(ys):
                kraus = chans[k].kraus
                gram, cross = _gram_pair(y, _column_view(_to_pairs(rho, dims), dims, k),
                                         dims, k)
                g = _party_gradient(kraus, sups[k], gram, cross)
                e = rng.standard_normal(kraus.shape) \
                    + 1j * rng.standard_normal(kraus.shape)
                eps = 1e-6
                fd = (self._objective(kraus + eps * e, k, y, rho, dims)
                      - self._objective(kraus - eps * e, k, y, rho, dims)) / (2 * eps)
                analytic = 2 * np.real(np.vdot(e, g))
                assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic)), (dims, k)

    @pytest.mark.parametrize("dims", SHAPES + ((3, 2), (2, 3)))
    def test_gram_objective_matches_full_objective(self, dims, rng):
        # at (3, 2) and (2, 3) the qutrit party's column view has M = 4
        # columns, fewer than its d^2 = 9 rows, so its Gram matrix is singular
        chans, _, rho, ys = self._party_inputs(dims, rng)
        rho_sq = np.vdot(rho, rho).real
        for k, y in enumerate(ys):
            gram, cross = _gram_pair(y, _column_view(_to_pairs(rho, dims), dims, k),
                                     dims, k)
            for seed in range(3):
                s = liouville(random_local_channel(dims[k], 2, seed).kraus)
                full = reach._objective(_apply_local(y, s, dims, k),
                                        _to_pairs(rho, dims))
                assert abs(_gram_objective(s, gram, cross, rho_sq) - full) <= 1e-14

    def test_polar_retract_checks_every_result(self, rng):
        # the retraction's check is one maximum over the batch: finite rows
        # give isometries, and one row whose SVD gives NaN fails the batch
        v = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
        iso = _polar_retract(v)
        assert np.abs(iso.conj().swapaxes(-1, -2) @ iso - np.eye(2)).max() <= 1e-12
        v[1, 0, 0] = np.inf
        with pytest.raises(InvariantError, match="do not sum to the identity"):
            _polar_retract(v)


class TestPrecursorLine:
    SHAPES = ((2, 2, 2), (2, 3, 2), (3, 3, 3))

    @staticmethod
    def _line_inputs(dims, env, rng, batch=2):
        """Random channels (env_dim env(d) per party), unit precursors,
        their outputs X and a random target, as the loop holds them."""
        shape = SystemShape(dims)
        sups = [np.stack([liouville(random_local_channel(d, env(d), 5 * b + j).kraus)
                          for b in range(batch)]) for j, d in enumerate(dims)]
        phis = np.stack([random_pure(shape, rng).amplitudes for _ in range(batch)])
        sigma = _to_pairs(phis[:, :, None] * phis[:, None, :].conj(), dims)
        rho = _to_pairs(random_density(shape, rng).entries, dims)
        return sups, phis, _apply_product_channel_matrix(sups, sigma, dims), rho

    @staticmethod
    def _direct(sups, phi, rho, dims):
        """The objective of one precursor, by the product channel itself."""
        phi = phi / np.linalg.norm(phi)
        sigma = _to_pairs(np.outer(phi, phi.conj()), dims)
        return reach._objective(_apply_product_channel_matrix(sups, sigma, dims), rho)

    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("env", [lambda d: 1, lambda d: d, lambda d: d * d],
                             ids=["env1", "envd", "envd2"])
    def test_closed_form_matches_direct_evaluation(self, dims, env, rng):
        sups, phis, x, rho = self._line_inputs(dims, env, rng)
        g, norms, gram = _precursor_line(phis, x, rho, sups, dims)
        steps = np.array([0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0])
        closed = _line_objective(steps * np.ones((len(phis), 1)), norms, gram)
        for b in range(len(phis)):
            own = [s[b] for s in sups]
            direct = [self._direct(own, phis[b] - t * g[b], rho, dims) for t in steps]
            assert np.abs(closed[b] - direct).max() <= 1e-12, (dims, b)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_direction_matches_central_differences(self, dims, rng):
        # g is tangent to the sphere (Re<Phi, g> = 0), and along a tangent
        # direction xi the objective on the sphere changes at rate
        # 4 Re<xi, g>
        sups, phis, x, rho = self._line_inputs(dims, lambda d: d, rng)
        g = _precursor_line(phis, x, rho, sups, dims)[0]
        eps = 1e-6
        for b in range(len(phis)):
            assert abs(np.vdot(phis[b], g[b]).real) <= 1e-14
            own = [s[b] for s in sups]
            for _ in range(3):
                z = rng.standard_normal(phis.shape[1]) \
                    + 1j * rng.standard_normal(phis.shape[1])
                xi = z - np.vdot(phis[b], z).real * phis[b]
                fd = (self._direct(own, phis[b] + eps * xi, rho, dims)
                      - self._direct(own, phis[b] - eps * xi, rho, dims)) / (2 * eps)
                analytic = 4 * np.vdot(xi, g[b]).real
                assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic)), (dims, b)

    def test_lc_made_targets_reached(self):
        # four states that local noise makes from a Haar-random pure state
        # at (2, 2, 2), so each has an LC configuration at objective 0: a
        # search that stalls short of it is missing an LC state
        rng = np.random.default_rng(5)
        for _ in range(4):
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            chans = [random_local_channel(2, 2, int(rng.integers(2 ** 31)))
                     for _ in range(3)]
            target = apply_product_channel(
                chans, PureState(Q3, z / np.linalg.norm(z)).density())
            res = lc_distance_search(target, restarts=4, max_iters=300,
                                     master_seed=11)
            assert min(obj for _, obj, _ in res.per_restart_log) <= 1e-4


def _configuration_objective(rho, kraus, phis, b):
    """The objective of restart b's configuration in raw stacks, from a
    full product-channel application."""
    dims = rho.shape.local_dims
    sups = [liouville(kr[b]) for kr in kraus]
    sigma = np.outer(phis[b], phis[b].conj())
    out = _apply_product_channel_matrix(sups, _to_pairs(sigma, dims), dims)
    return reach._objective(out, _to_pairs(rho.entries, dims))


class TestSearch:
    def test_pure_target_converges_instantly(self):
        res = lc_distance_search(ghz_state().density(), restarts=1,
                                 max_iters=10, master_seed=0)
        assert res.trace_distance <= 1e-8

    def test_stored_distances_match_best(self):
        from lcstates.states import distance
        res = lc_distance_search(noisy_ghz(), restarts=2, max_iters=300,
                                 master_seed=1)
        out = res.best.output()
        assert abs(distance("hilbert_schmidt", out, noisy_ghz())
                   - res.hs_distance) < 1e-10
        assert abs(distance("trace", out, noisy_ghz())
                   - res.trace_distance) < 1e-10

    def test_deterministic_given_master_seed(self):
        a = lc_distance_search(noisy_ghz(), restarts=3, max_iters=100,
                               master_seed=42)
        b = lc_distance_search(noisy_ghz(), restarts=3, max_iters=100,
                               master_seed=42)
        assert a.per_restart_log == b.per_restart_log
        assert a.trace_distance == b.trace_distance

    def test_seeded_search_pinned(self):
        # per-restart results of a seeded search; the kernel and loop may
        # only move them at rounding level
        res = lc_distance_search(noisy_ghz(), restarts=4, max_iters=40,
                                 master_seed=2026)
        finals = [obj for _, obj, _ in res.per_restart_log]
        lengths = [n for _, _, n in res.per_restart_log]
        assert finals == pytest.approx(
            [0.10680000000000002, 2.295637454907684e-06,
             6.027951407028276e-06, 5.265827319522742e-06], rel=1e-8)
        assert lengths == [5, 161, 161, 161]

    @pytest.mark.parametrize("target, finals, lengths", [
        (noisy_four_qubit_ghz,
         [0.10680000000000003, 5.345499925146768e-06,
          1.0650626767971794e-05, 1.3683800177410887e-05,
          1.6384775915923022e-05, 3.1378913192270375e-06],
         [6] + [201] * 5),
        (noisy_qutrit_ghz,
         [0.1379555555555554, 0.0003929524163082121, 0.0001296778319878067,
          0.00026862182174480775, 3.761121502349196e-05, 0.00013835942870893403],
         [5] + [161] * 5),
    ])
    def test_seeded_wide_search_pinned(self, target, finals, lengths):
        # the benchmark's wide searches (6 x 40, master seed 2026); restart
        # 0 stops after iteration 1, so the others run compacted
        res = lc_distance_search(target(), restarts=6, max_iters=40,
                                 master_seed=2026)
        assert [obj for _, obj, _ in res.per_restart_log] == \
            pytest.approx(finals, rel=1e-8)
        assert [n for _, _, n in res.per_restart_log] == lengths
        assert [d.iterations for d in res.diagnostics] == [1] + [40] * 5
        assert [d.stop_reason for d in res.diagnostics] == \
            [CONVERGED] + [MAX_ITERS] * 5

    def test_memory_not_sized_by_max_iters(self):
        # a pure target stops after one iteration, so the search's memory
        # must not grow with the iteration cap: one float per iteration and
        # restart at ITERATION_LIMIT would be 8 MB
        tracemalloc.start()
        try:
            res = lc_distance_search(ghz_state().density(), restarts=1,
                                     max_iters=reach.ITERATION_LIMIT,
                                     master_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics[0].iterations == 1
        assert peak < 4 * 2 ** 20

    def test_memory_not_grown_by_iterations(self):
        # noisy GHZ's random restarts run every iteration: the search keeps
        # no per-move record, so ten times the iterations costs no memory;
        # a first search pays the one-time allocations before measuring
        lc_distance_search(noisy_ghz(), restarts=2, max_iters=1, master_seed=4)
        peaks = []
        for max_iters in (20, 200):
            tracemalloc.start()
            try:
                res = lc_distance_search(noisy_ghz(), restarts=2,
                                         max_iters=max_iters, master_seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.diagnostics[1].iterations == max_iters
        assert peaks[1] - peaks[0] < 4096

    @pytest.mark.parametrize("target, env_dims", [
        (noisy_ghz, (4, 3, 2)), (noisy_qutrit_ghz, (9, 5, 1))])
    def test_starts_match_inline_reference(self, target, env_dims):
        rho = target()
        dims = rho.shape.local_dims
        seeds = [5, 11, 12]
        kraus, phis = _starts(rho, env_dims, seeds)
        # element 0: identity channels padded with zeros, top eigenvector
        for kr, d, e in zip(kraus, dims, env_dims):
            pad = np.zeros((e, d, d), dtype=complex)
            pad[0] = np.eye(d)
            assert np.array_equal(kr[0], pad)
        assert phis[0].tobytes() == _top_eigenvector(rho.entries).tobytes()
        # later elements: one isometry per party, then the precursor
        for b, seed in enumerate(seeds[1:], start=1):
            rng = np.random.default_rng(seed)
            for kr, d, e in zip(kraus, dims, env_dims):
                ref = haar_isometry(d * e, d, rng).reshape(e, d, d)
                assert kr[b].tobytes() == ref.tobytes()
            z = rng.standard_normal(len(phis[b])) + 1j * rng.standard_normal(len(phis[b]))
            assert phis[b].tobytes() == (z / np.linalg.norm(z)).tobytes()

    def test_objective_monotone_within_restart(self):
        # a restart run for k iterations is the first k iterations of a
        # longer run, so its final objective does not rise with max_iters
        for target, env_dims in ((noisy_ghz, (4, 4, 4)),
                                 (lambda: z_mixture(0.5), (4, 4, 4)),
                                 (noisy_qutrit_ghz, (9, 9, 9))):
            rho = target()
            finals = [_run_lock_step(rho, *_starts(rho, env_dims, [0, 11, 12, 13]),
                                     k, 1e-14)[0]
                      for k in range(13)]
            assert np.all(np.diff(finals, axis=0) <= 1e-12)

    @pytest.mark.parametrize("target, env_dims", [
        (noisy_ghz, (4, 4, 4)),
        (lambda: z_mixture(0.5), (4, 4, 4)),
        (lambda: ghz_state().density(), (4, 4, 4)),
        (noisy_four_qubit_ghz, (4, 4, 4, 4)),
        (noisy_qutrit_ghz, (9, 9, 9)),
    ])
    def test_recorded_finals_match_configurations(self, target, env_dims):
        # channel trials are scored from the Gram pair; each returned final
        # objective must still be that of the configuration left in the
        # caller's arrays
        rho = target()
        kraus, phis = _starts(rho, env_dims, [0, 11, 12, 13])
        finals, _ = _run_lock_step(rho, kraus, phis, 30, 1e-14)
        for b, final in enumerate(finals):
            assert abs(_configuration_objective(rho, kraus, phis, b)
                       - final) <= 1e-15

    @pytest.mark.parametrize("target, threshold", [
        (noisy_ghz, 0.3), (noisy_qutrit_ghz, 0.1)])
    def test_partial_step_underflow(self, target, threshold, monkeypatch):
        # a party's trials are all rejected where its Gram matrix's leading
        # entry exceeds threshold, so some restarts underflow mid-iteration
        # while the others go on: a dead row sits out the rest of its
        # iteration in the batch and stops at the iteration's end
        true_trial_objective = reach._gram_objective

        def rejecting_some(s, gram, cross, rho_sq):
            return (true_trial_objective(s, gram, cross, rho_sq)
                    + (gram[..., 0, 0].real > threshold))

        monkeypatch.setattr(reach, "_gram_objective", rejecting_some)
        rho = target()
        n = rho.shape.n_parties
        small = lc_distance_search(rho, restarts=3, max_iters=30, master_seed=7)
        large = lc_distance_search(rho, restarts=6, max_iters=30, master_seed=7)
        reasons = [d.stop_reason for d in large.diagnostics]
        assert STEP_UNDERFLOW in reasons[:3] and MAX_ITERS in reasons
        for (_, _, length), diag in zip(large.per_restart_log, large.diagnostics):
            assert length == 1 + diag.iterations * (n + 1)
        assert small.per_restart_log == large.per_restart_log[:3]
        assert small.diagnostics == large.diagnostics[:3]
        # a dead row's final objective is that of its configuration
        seeds = [seed for seed, _, _ in large.per_restart_log]
        env_dims = tuple(d * d for d in rho.shape.local_dims)
        kraus, phis = _starts(rho, env_dims, seeds)
        finals, diags = _run_lock_step(rho, kraus, phis, 30, 1e-14)
        assert diags == large.diagnostics
        for b, final in enumerate(finals):
            assert abs(_configuration_objective(rho, kraus, phis, b)
                       - final) <= 1e-15

    @pytest.mark.parametrize("target", [noisy_ghz, noisy_qutrit_ghz])
    def test_precursor_objective_from_closed_form(self, target, monkeypatch):
        # every channel trial is rejected, so the objective a restart ends
        # with is the one its precursor move took from the closed form
        # (`_line_objective`): the move updates Phi and no output X.  The
        # step underflows during party 0, so every restart stops after
        # iteration 1
        true_trial_objective = reach._gram_objective

        def rejecting_trial(s, gram, cross, rho_sq):
            return true_trial_objective(s, gram, cross, rho_sq) + 1

        monkeypatch.setattr(reach, "_gram_objective", rejecting_trial)
        rho = target()
        env_dims = tuple(d * d for d in rho.shape.local_dims)
        kraus, phis = _starts(rho, env_dims, [0, 11, 12, 13])
        start = [_configuration_objective(rho, kraus, phis, b) for b in range(4)]
        finals, diags = _run_lock_step(rho, kraus, phis, 10, 1e-14)
        assert [d.stop_reason for d in diags] == [STEP_UNDERFLOW] * 4
        assert [d.iterations for d in diags] == [1] * 4
        assert [d.accepted_steps for d in diags] == [0] * 4
        # the random restarts' precursor moves moved
        assert all(f < s for f, s in zip(finals[1:], start[1:]))
        for b, final in enumerate(finals):
            assert abs(_configuration_objective(rho, kraus, phis, b)
                       - final) <= 1e-15

    @pytest.mark.parametrize("target", [noisy_ghz, noisy_qutrit_ghz])
    def test_batch_composition_invariant(self, target):
        # each restart's arithmetic is independent of the others in the
        # batch, so the first three of six restarts repeat bit for bit
        small = lc_distance_search(target(), restarts=3, max_iters=30,
                                   master_seed=2026)
        large = lc_distance_search(target(), restarts=6, max_iters=30,
                                   master_seed=2026)
        assert small.per_restart_log == large.per_restart_log[:3]
        assert small.diagnostics == large.diagnostics[:3]

    def test_diagnostics_match_traces(self):
        res = lc_distance_search(noisy_ghz(), restarts=4, max_iters=40,
                                 master_seed=2026)
        n = 3
        assert len(res.diagnostics) == 4
        for (_, _, length), diag in zip(res.per_restart_log, res.diagnostics):
            assert diag.stop_reason in (CONVERGED, MAX_ITERS)
            # every party's channel move ends in exactly one accepted trial
            assert length == 1 + diag.iterations * (n + 1)
            assert diag.accepted_steps == diag.iterations * n
            assert diag.rejected_steps >= 0
        assert [d.stop_reason for d in res.diagnostics] == \
            [CONVERGED, MAX_ITERS, MAX_ITERS, MAX_ITERS]
        assert [d.iterations for d in res.diagnostics] == [1, 40, 40, 40]

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (2, 3, 2)])
    def test_running_prefix_equals_composition(self, dims, monkeypatch, rng):
        # each channel move's Y_k, built from the running prefix of the
        # parties already moved, is bit for bit the other parties' current
        # Liouville matrices applied to sigma in ascending order; the
        # moves make n(n-1)/2 + n kernel calls per iteration, the last of
        # them giving the next precursor move's output X
        target = random_density(SystemShape(dims), rng)
        kraus, phis = _starts(target, tuple(d * d for d in dims), [0, 11, 12, 13])
        seen, kernel_calls = [], []
        true_gram_pair, true_apply_local = reach._gram_pair, reach._apply_local

        def checked(y, rho_view, dims_, k):
            sups = [liouville(kr) for kr in kraus]   # updated in place
            sigma = phis[:, :, None] * phis[:, None, :].conj()
            assert np.array_equal(y, _others_applied(sups, sigma, dims, k))
            seen.append(k)
            return true_gram_pair(y, rho_view, dims_, k)

        def counted(*args):
            kernel_calls.append(None)
            return true_apply_local(*args)

        monkeypatch.setattr(reach, "_gram_pair", checked)
        monkeypatch.setattr(reach, "_apply_local", counted)
        _, diags = _run_lock_step(target, kraus, phis, 3, 0.0)
        n = len(dims)
        assert [d.iterations for d in diags] == [3] * 4
        assert seen == list(range(n)) * 3
        assert len(kernel_calls) == 3 * (n * (n - 1) // 2 + n)

    def test_step_underflow_ends_restart(self, monkeypatch):
        # every objective after the first (full, closed-form line and
        # Gram-pair alike) is inflated, so every precursor and channel
        # trial is rejected: the step halves from 0.1 until it falls below
        # 1e-8 (24 halvings) during party 0 of iteration 1; the dead row
        # sits out parties 1-2, recording its unchanged objective for
        # each, and stops at the iteration's end
        calls, line_calls = [], []
        true_objective = reach._objective
        true_line_objective = reach._line_objective
        true_trial_objective = reach._gram_objective

        def rejecting(x, rho_mat):
            calls.append(None)
            return true_objective(x, rho_mat) + (len(calls) > 1)

        def rejecting_line(t, norms, gram):
            line_calls.append(None)
            return true_line_objective(t, norms, gram) + 1

        def rejecting_trial(s, gram, cross, rho_sq):
            return true_trial_objective(s, gram, cross, rho_sq) + 1

        monkeypatch.setattr(reach, "_objective", rejecting)
        monkeypatch.setattr(reach, "_line_objective", rejecting_line)
        monkeypatch.setattr(reach, "_gram_objective", rejecting_trial)
        res = lc_distance_search(noisy_ghz(), restarts=2, max_iters=10,
                                 master_seed=5)
        for (_, _, length), diag in zip(res.per_restart_log, res.diagnostics):
            assert diag.stop_reason == STEP_UNDERFLOW
            assert diag.iterations == 1
            assert (diag.accepted_steps, diag.rejected_steps) == (0, 24)
            assert length == 5   # 1 + 1 iteration * (3 parties + 1)
        # the precursor move of iteration 1 scored its trials, and kept none
        assert len(line_calls) == 1

    def test_total_dimension_one(self):
        # one eigenvalue, so the precursor move has no gap to test
        target = DensityMatrix(SystemShape((1,)), np.array([[1.0]]))
        res = lc_distance_search(target, restarts=2, max_iters=5, master_seed=0)
        assert res.trace_distance <= 1e-12

    def test_intermediate_configs_are_valid_channels(self):
        res = lc_distance_search(noisy_ghz(), restarts=2, max_iters=200,
                                 master_seed=3)
        for c in res.best.channels:
            assert c.completeness_residual() <= 1e-8

    def test_option_validation(self):
        with pytest.raises(InvariantError):
            lc_distance_search(z_mixture(0.5), env_dims=(5, 4, 4))
        with pytest.raises(InvariantError):
            lc_distance_search(z_mixture(0.5), restarts=0)
        # size limits are checked before any restart configuration is built
        for opts in ({"restarts": reach.RESTART_LIMIT + 1},
                     {"max_iters": reach.ITERATION_LIMIT + 1}, {"max_iters": -1}):
            with pytest.raises(InvariantError):
                lc_distance_search(z_mixture(0.5), **opts)

    @pytest.mark.parametrize("env_dims", [(4, 4), (4, 4, 4, 4), ()])
    def test_env_dims_one_per_party(self, env_dims):
        with pytest.raises(InvariantError, match="^need one environment "
                           "dimension per party"):
            lc_distance_search(z_mixture(0.5), env_dims=env_dims)

    @pytest.mark.parametrize("opts", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-9},
        {"tol": 10 ** 400}, {"tol": "1e-9"}, {"tol": True},
        {"master_seed": -1}, {"master_seed": 1.0},
        {"restarts": True}, {"restarts": 2.5}, {"max_iters": 2.5},
        {"env_dims": (2.7, 2, 2)}, {"env_dims": 4}, {"env_dims": (4, 4, "4")},
        {"tol": None},
    ])
    def test_malformed_option_rejected(self, opts):
        # each is checked before any restart runs (max_iters=1 keeps the
        # search short should one slip through), and the message names it
        with pytest.raises(InvariantError, match=f"^{next(iter(opts))}"):
            lc_distance_search(z_mixture(0.5), **{"restarts": 1, "max_iters": 1,
                                                  **opts})

    def test_numpy_integer_options_accepted(self):
        res = lc_distance_search(noisy_ghz(), env_dims=np.array([4, 4, 4]),
                                 restarts=np.int64(2), max_iters=np.int32(3),
                                 tol=np.float32(1e-9), master_seed=np.uint32(5))
        ref = lc_distance_search(noisy_ghz(), env_dims=(4, 4, 4), restarts=2,
                                 max_iters=3, tol=float(np.float32(1e-9)),
                                 master_seed=5)
        assert res.per_restart_log == ref.per_restart_log


class TestObstruction:
    def test_z_mixtures_not_lccc(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            cert = lccc_obstruction_check(z_mixture(p))
            assert cert.verdict == NOT_LCCC
            labels = {c.label for c in cert.classes}
            assert labels == {"W", "GHZ"}

    def test_not_lccc_soundness(self):
        # reconstructing the certificate's decomposition reproduces the input
        for p in (0.3, 0.5):
            rho = z_mixture(p)
            cert = lccc_obstruction_check(rho)
            q, psi_a, psi_b = cert.decomposition
            recon = q * np.outer(psi_a.amplitudes, psi_a.amplitudes.conj()) \
                + (1 - q) * np.outer(psi_b.amplitudes, psi_b.amplitudes.conj())
            assert np.max(np.abs(recon - rho.entries)) < 1e-9
            assert abs(psi_a.overlap(psi_b)) <= 1e-9
            relabeled = {classify_three_qubit(psi_a).label,
                         classify_three_qubit(psi_b).label}
            assert relabeled == {"W", "GHZ"}

    def test_verdict_invariant_under_local_unitaries(self):
        # SLOCC classes, hence the certificate, ignore local unitaries; the
        # degenerate p = 1/2 eigenspace is then an arbitrary basis of span{W, GHZ}
        rng = np.random.default_rng(33)
        # and p just inside and outside 1e-9 and 1e-3 of 1/2, where the
        # computed eigenvectors are ill-conditioned to different degrees
        for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.5 - 1e-9, 0.5 + 1e-9,
                  0.5 - 3e-9, 0.5 + 3e-9, 0.5 - 1e-3, 0.5 + 1e-3,
                  0.5 - 1.1e-3, 0.5 + 1.1e-3):
            for _ in range(20):
                u = tensor_unitary(rng)
                rho = DensityMatrix(Q3, u @ z_mixture(p).entries @ u.conj().T,
                                    symmetrize=True)
                cert = lccc_obstruction_check(rho)
                assert cert.verdict == NOT_LCCC, p
                assert {c.label for c in cert.classes} == {"W", "GHZ"}
                q, psi_a, psi_b = cert.decomposition
                assert abs(psi_a.overlap(psi_b)) <= 1e-9
                recon = q * psi_a.density().entries + (1 - q) * psi_b.density().entries
                assert np.max(np.abs(recon - rho.entries)) < 1e-9

    @pytest.mark.parametrize("dp", [1e-8, 1e-7, 1e-6, -1e-7])
    def test_near_degenerate_certified(self, dp):
        # this close to p = 1/2 the spectral eigenvectors mix W into GHZ;
        # the zero-tangle pairs still give the exact decomposition
        rng = np.random.default_rng(35)
        for _ in range(20):
            u = tensor_unitary(rng)
            rho = DensityMatrix(Q3, u @ z_mixture(0.5 + dp).entries @ u.conj().T,
                                symmetrize=True)
            cert = lccc_obstruction_check(rho)
            assert cert.verdict == NOT_LCCC, dp
            assert {c.label for c in cert.classes} == {"W", "GHZ"}
            q, psi_a, psi_b = cert.decomposition
            assert q == pytest.approx(0.5 + abs(dp), abs=1e-12)
            recon = q * psi_a.density().entries + (1 - q) * psi_b.density().entries
            assert np.max(np.abs(recon - rho.entries)) <= 1e-9

    @pytest.mark.parametrize("dp", [1e-9, 3e-9])
    def test_best_pair_certified(self, dp):
        # within a few 1e-9 of p = 1/2 a zero-tangle pair off the exact
        # (W, GHZ) one still passes the 1e-9 reconstruction check; the pair
        # that fits rho best is the exact one
        rng = np.random.default_rng(36)
        p = 0.5 + dp
        for _ in range(20):
            u = tensor_unitary(rng)
            rho = DensityMatrix(Q3, u @ z_mixture(p).entries @ u.conj().T,
                                symmetrize=True)
            cert = lccc_obstruction_check(rho)
            assert cert.verdict == NOT_LCCC
            q, psi_a, psi_b = cert.decomposition
            recon = q * psi_a.density().entries + (1 - q) * psi_b.density().entries
            assert np.max(np.abs(recon - rho.entries)) <= 1e-14
            assert abs(q - p) <= 1e-14

    def test_ghz_plus_minus_mixture_unknown(self):
        # span{GHZ+, GHZ-} = span{|000>, |111>}: the quartic's roots are the
        # two product states, so no W-class direction exists
        g = ghz_state().amplitudes
        gm = g * np.array([1, 0, 0, 0, 0, 0, 0, -1])
        mix = DensityMatrix(Q3, 0.5 * np.outer(g, g.conj())
                            + 0.5 * np.outer(gm, gm.conj()))
        assert lccc_obstruction_check(mix).verdict == UNKNOWN
        rng = np.random.default_rng(34)
        for _ in range(10):
            u = tensor_unitary(rng)
            rotated = DensityMatrix(Q3, u @ mix.entries @ u.conj().T,
                                    symmetrize=True)
            assert lccc_obstruction_check(rotated).verdict == UNKNOWN

    def test_bipartite_always_lccc(self, rng):
        for _ in range(10):
            rho = random_density(SystemShape((2, 2)), rng)
            cert = lccc_obstruction_check(rho)
            assert cert.verdict == LCCC_BIPARTITE
            cert.plan.verify()

    def test_ghz_biseparable_mixture_unknown(self):
        bis = tensor_product(basis_state(SystemShape((2,)), 0), max_entangled(2))
        mix = DensityMatrix(Q3, 0.4 * ghz_state().density().entries
                            + 0.6 * bis.density().entries)
        cert = lccc_obstruction_check(mix)
        assert cert.verdict == UNKNOWN

    def test_full_rank_unknown(self, rng):
        cert = lccc_obstruction_check(random_density(Q3, rng))
        assert cert.verdict == UNKNOWN

    def test_generic_rank_two_unknown(self, rng):
        # both eigenvectors of a generic rank-2 state are GHZ-class; the other
        # zero-tangle pairs of its support fail the reconstruction check
        for _ in range(40):
            assert lccc_obstruction_check(random_density(Q3, rng, rank=2)).verdict == UNKNOWN

    def test_unknown_reasons(self, rng):
        # what no criterion covers, (2,2,3) or a three-qubit rank other
        # than 2, is one exit; a rank-2 three-qubit support without a
        # W/GHZ decomposition is the other
        for rho in (random_density(SystemShape((2, 2, 3)), rng),
                    random_density(Q3, rng)):
            assert lccc_obstruction_check(rho).reason == "no implemented criterion"
        cert = lccc_obstruction_check(random_density(Q3, rng, rank=2))
        assert cert.reason == "argument inapplicable"

    @pytest.mark.parametrize("dims, calls", [((2, 2, 3), 0), ((2, 2, 2), 1),
                                             ((2, 2, 2, 2), 0)])
    def test_spectral_ensemble_only_for_three_qubits(self, dims, calls,
                                                     monkeypatch, rng):
        seen = []
        def counted(rho):
            seen.append(rho)
            return spectral_ensemble(rho)
        monkeypatch.setattr(reach, "spectral_ensemble", counted)
        lccc_obstruction_check(random_density(SystemShape(dims), rng))
        assert len(seen) == calls

    def test_four_party_unknown(self, rng):
        cert = lccc_obstruction_check(random_density(SystemShape((2, 2, 2, 2)), rng))
        assert cert.verdict == UNKNOWN
        assert cert.reason == "no implemented criterion"

    def test_lc_made_rank_two_never_obstructed(self):
        # soundness on the rank-2 states the certificate examines: a pure
        # precursor (Haar-random, or W or GHZ under a random GL x GL x GL)
        # with a random 2-Kraus channel on one random party is LC by
        # construction, so it must never be certified NotLCCC
        rng = np.random.default_rng(37)
        for i in range(300):
            if i % 3 == 0:
                amps = random_pure(Q3, rng).amplitudes
            else:
                g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                     for _ in range(3)]
                base = (w_state(), ghz_state())[i % 3 - 1].amplitudes
                amps = np.kron(np.kron(g[0], g[1]), g[2]) @ base
            chans = [identity_channel(2)] * 3
            chans[rng.integers(3)] = random_local_channel(2, 2, int(rng.integers(2 ** 32)))
            rho = apply_product_channel(
                chans, PureState(Q3, amps / np.linalg.norm(amps)).density())
            assert rho.rank() == 2
            assert lccc_obstruction_check(rho).verdict != NOT_LCCC, i

    def test_lc_implies_not_obstructed(self):
        # consistency between engines on states the search can reach
        for target in (ghz_state().density(), noisy_ghz()):
            res = lc_distance_search(target, restarts=1, max_iters=10,
                                     master_seed=0)
            if res.hs_distance ** 2 <= 1e-6:
                assert lccc_obstruction_check(target).verdict != NOT_LCCC
