import numpy as np
import pytest

from lcstates import (DensityMatrix, InvariantError, PureState, SystemShape,
                      apply_product_channel, basis_state, dephasing_channel,
                      depolarizing_channel, ghz_state, identity_channel,
                      lc_distance_search, lccc_obstruction_check,
                      max_entangled, precursor_optimal_for_channels,
                      random_local_channel, tensor_product, w_state,
                      z_mixture)
from lcstates.channels import _apply_local, _apply_product_channel_matrix, liouville
from lcstates import reach
from lcstates.reach import (LCConfiguration, _identity_configuration,
                            _party_gradient, _run_lock_step, CONVERGED,
                            MAX_ITERS, NOT_LCCC, STEP_UNDERFLOW, LCCC_BIPARTITE,
                            UNKNOWN)
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


class TestPartyGradient:
    def _objective(self, kraus, k, y, rho, dims):
        x = _apply_local(y, liouville(kraus), dims, k)
        return np.linalg.norm(x - rho) ** 2

    def test_finite_difference(self, rng):
        # d f(K + eps E)/d eps = 2 Re sum_m <E_m, G_m> for any complex E
        for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3)):
            shape = SystemShape(dims)
            d = dims[0]
            chans = [random_local_channel(d, d, 7 * j + len(dims))
                     for j in range(len(dims))]
            sups = [liouville(c.kraus) for c in chans]
            sigma = random_pure(shape, rng).density().entries
            rho = random_density(shape, rng).entries
            for k in range(len(dims)):
                y = _apply_product_channel_matrix(sups, sigma, dims, skip=k)
                kraus = chans[k].kraus
                x = _apply_local(y, sups[k], dims, k)
                g = _party_gradient(x - rho, y, kraus, dims, k)
                e = rng.standard_normal(kraus.shape) \
                    + 1j * rng.standard_normal(kraus.shape)
                eps = 1e-6
                fd = (self._objective(kraus + eps * e, k, y, rho, dims)
                      - self._objective(kraus - eps * e, k, y, rho, dims)) / (2 * eps)
                analytic = 2 * np.real(np.vdot(e, g))
                assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic)), (dims, k)


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
            [0.10680000000000014, 0.00015934657013000922,
             0.007153319732124939, 6.521818569649346e-06], rel=1e-8)
        assert lengths == [5, 161, 161, 161]

    def test_objective_monotone_within_restart(self):
        target = noisy_ghz()
        cfg = _identity_configuration(target, (2, 2, 2))
        _, _, traces, _ = _run_lock_step(target, [cfg], 200, 1e-14)
        diffs = np.diff(np.asarray(traces[0]))
        assert np.all(diffs <= 1e-12)

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

    def test_step_underflow_ends_restart(self, monkeypatch):
        # every objective after the first is inflated, so every precursor
        # and channel trial is rejected: the step halves from 0.1 until it
        # falls below 1e-8 (24 halvings) during party 0 of iteration 1,
        # which still records its trace entry
        calls = []
        true_objective = reach._objective

        def rejecting(x, rho_mat):
            calls.append(None)
            return true_objective(x, rho_mat) + (len(calls) > 1)

        monkeypatch.setattr(reach, "_objective", rejecting)
        res = lc_distance_search(noisy_ghz(), restarts=2, max_iters=10,
                                 master_seed=5)
        for (_, _, length), diag in zip(res.per_restart_log, res.diagnostics):
            assert diag.stop_reason == STEP_UNDERFLOW
            assert diag.iterations == 1
            assert (diag.accepted_steps, diag.rejected_steps) == (0, 24)
            assert length == 3

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
