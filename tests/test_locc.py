import hashlib
import json

import numpy as np
import pytest

from lcstates import (DensityMatrix, InvariantError, PureState, SystemShape,
                      UnsupportedError, basis_state, build_conversion,
                      can_convert, ghz_state, lccc_synthesize_bipartite,
                      majorizes, max_entangled, schmidt_decompose,
                      spectral_ensemble, w_state, z_mixture)
from lcstates import locc, serialize
from lcstates.locc import build_synthesis_plan, simulate_synthesis
from lcstates.states import _cut_permutation, _fold
from conftest import random_density, random_pure

CUT = ((0,), (1,))


def _same_bits(a, b):
    a, b = (np.ascontiguousarray(x, dtype=complex) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMajorizes:
    def test_extremal(self):
        assert majorizes([1, 0], [0.5, 0.5])

    def test_reflexive(self, rng):
        p = rng.random(5); p /= p.sum()
        assert majorizes(p, p)

    def test_strict_pair(self):
        assert not majorizes([0.6, 0.4], [0.7, 0.3])
        assert majorizes([0.7, 0.3], [0.6, 0.4])

    def test_length_padding(self):
        assert majorizes([1.0], [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(InvariantError):
            majorizes([1.2, -0.2], [0.5, 0.5])

    @pytest.mark.parametrize("x, y", [([0.5], [1.0]), ([1.0], [0.5, 0.6]),
                                      ([], [1.0])])
    def test_not_summing_to_one_rejected(self, x, y):
        with pytest.raises(InvariantError, match="must sum to 1"):
            majorizes(x, y)

    @pytest.mark.parametrize("x, y", [([np.nan, 1.0], [0.5, 0.5]),
                                      ([0.5, 0.5], [np.nan, 1.0]),
                                      ([np.inf, 1.0], [0.5, 0.5])])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(InvariantError, match="finite"):
            majorizes(x, y)

    @pytest.mark.parametrize("x, y", [([[0.5, 0.5]], [1.0]), ([1.0], [[1.0]]),
                                      (1.0, [1.0])])
    def test_not_a_vector_rejected(self, x, y):
        with pytest.raises(InvariantError, match="one axis"):
            majorizes(x, y)

    @pytest.mark.parametrize("p", [np.array([1j, 0]), np.array([1 + 0j, 0j])],
                             ids=["imaginary", "zero-imaginary"])
    def test_complex_array_rejected(self, p):
        # numpy's cast to float would drop the imaginary parts
        with pytest.raises(InvariantError, match="real numbers"):
            majorizes(p, [1.0])
        with pytest.raises(InvariantError, match="real numbers"):
            majorizes([1.0], p)


class TestCanConvert:
    def test_max_entangled_reaches_anything(self, rng):
        for _ in range(20):
            phi = random_pure(SystemShape((2, 2)), rng)
            assert can_convert(max_entangled(2), phi, CUT)

    def test_product_reaches_no_entangled(self, rng):
        prod = basis_state(SystemShape((2, 2)), 0)
        assert not can_convert(prod, max_entangled(2), CUT)
        assert can_convert(prod, prod, CUT)

    def test_reflexive(self, rng):
        psi = random_pure(SystemShape((3, 3)), rng)
        assert can_convert(psi, psi, CUT)

    def test_transitive_on_chains(self, rng):
        shape = SystemShape((3, 3))
        for _ in range(30):
            a, b, c = (random_pure(shape, rng) for _ in range(3))
            ab = can_convert(a, b, CUT)
            bc = can_convert(b, c, CUT)
            if ab and bc:
                assert can_convert(a, c, CUT)

    def test_shape_mismatch(self):
        with pytest.raises(InvariantError):
            can_convert(max_entangled(2), max_entangled(3), CUT)

    @pytest.mark.parametrize("cut", [((0,), (1, 2, 2)), ((0, 0), (1, 2))])
    def test_party_named_twice_rejected(self, cut):
        with pytest.raises(InvariantError, match="each party once"):
            can_convert(ghz_state(), ghz_state(), cut)


class TestBuildConversion:
    def test_max_entangled_target(self):
        proto = build_conversion(max_entangled(3), CUT)
        proto.verify()
        for m in range(3):
            assert np.allclose(np.abs(np.diag(proto.alice_kraus[m])),
                               1 / np.sqrt(3), atol=1e-12)

    def test_explicit_two_level_target(self):
        # lambda = (0.64, 0.36): oracle by direct 2x2 algebra
        amps = np.array([0.8, 0, 0, 0.6])
        target = PureState(SystemShape((2, 2)), amps)
        proto = build_conversion(target, CUT)
        for m in range(2):
            prob, state = proto.outcome_state(m)
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert abs(abs(state.overlap(target)) ** 2 - 1) < 1e-9
        # outcome 0 Kraus carries sqrt(lambda) on the diagonal
        assert np.allclose(sorted(np.abs(np.diag(proto.alice_kraus[0]))),
                           [0.6, 0.8], atol=1e-9)

    def test_completeness_over_random_targets(self, rng):
        for _ in range(100):
            target = random_pure(SystemShape((3, 3)), rng)
            proto = build_conversion(target, CUT)
            k = proto.alice_kraus
            comp = np.einsum("mij,mik->jk", k.conj(), k)
            assert np.max(np.abs(comp - np.eye(3))) <= 1e-12

    def test_outcomes_uniform_and_faithful(self, rng):
        for d in (2, 3):
            for _ in range(20):
                target = random_pure(SystemShape((d, d)), rng)
                build_conversion(target, CUT).verify()

    def test_nan_measurement_is_incomplete(self):
        proto = build_conversion(max_entangled(2), CUT)
        kraus = proto.alice_kraus.copy()
        kraus[0, 0, 0] = np.nan
        broken = locc.ConversionProtocol(proto.target, proto.cut, kraus,
                                         proto.corrections)
        with pytest.raises(InvariantError, match="complete"):
            broken.verify()

    def test_non_uniform_outcomes_fail(self):
        # complete, but the outcomes of |Phi+> occur with 3/4 and 1/4
        proto = build_conversion(max_entangled(2), CUT)
        kraus = np.stack([np.diag([1, np.sqrt(0.5)]), np.diag([0, np.sqrt(0.5)])])
        broken = locc.ConversionProtocol(proto.target, proto.cut, kraus,
                                         proto.corrections)
        with pytest.raises(InvariantError,
                           match=r"^outcome 0 has probability 0\.7[0-9]*, not 1/2"):
            broken.verify()

    def test_wrong_corrections_fail(self, rng):
        # identity corrections leave each outcome in the Schmidt basis
        proto = build_conversion(random_pure(SystemShape((2, 2)), rng), CUT)
        eye = (np.eye(2), np.eye(2))
        broken = locc.ConversionProtocol(proto.target, proto.cut,
                                         proto.alice_kraus, (eye, eye))
        with pytest.raises(InvariantError, match="does not reproduce the target"):
            broken.verify()

    def test_integer_measurement_verifies(self):
        # a hand-built protocol may hold integer Kraus operators; the
        # completeness rule subtracts its cached float identity from them
        proto = build_conversion(basis_state(SystemShape((2, 2)), 0), CUT)
        kraus = proto.alice_kraus.real.astype(int)
        locc.ConversionProtocol(proto.target, proto.cut, kraus,
                                proto.corrections).verify()

    @pytest.mark.parametrize("cut, sorted_cut", [
        (((2, 0), (1,)), ((0, 2), (1,))),
        (({2, 0}, [1]), ((0, 2), (1,))),
        (((2, 1), (0,)), ((1, 2), (0,))),
    ], ids=("20|1", "set", "21|0"))
    def test_unsorted_cut_is_sorted(self, cut, sorted_cut, rng):
        # each side of a cut is listed in ascending party order, so a side
        # given in another order, or as a set, builds the same protocol
        psi = random_pure(SystemShape((2, 3, 2)), rng)
        ref = build_conversion(psi, sorted_cut)
        ref.verify()
        proto = build_conversion(psi, cut)
        assert proto.cut == sorted_cut
        proto.verify()
        assert serialize.protocol_to_dict(proto) == serialize.protocol_to_dict(ref)
        assert _same_bits(proto.precursor().amplitudes, ref.precursor().amplitudes)
        assert schmidt_decompose(psi, cut).left_parties == sorted_cut[0]

    def test_numpy_integer_cut_serializes(self, rng):
        psi = random_pure(SystemShape((2, 3)), rng)
        proto = build_conversion(psi, ((np.int64(0),), np.array([1])))
        assert all(type(k) is int for side in proto.cut for k in side)
        doc = json.loads(json.dumps(serialize.protocol_to_dict(proto)))
        assert doc["cut"] == [[0], [1]]

    def test_rank_precondition(self):
        # a (3,2) system cut the wide way: left dim 3, right dim 2 -> d = 2
        psi = random_pure(SystemShape((3, 2)), np.random.default_rng(0))
        proto = build_conversion(psi, CUT)   # rank <= 2 always holds here
        proto.verify()


class TestSpectralEnsemble:
    def test_z_mixture(self):
        ens = spectral_ensemble(z_mixture(0.3))
        assert np.allclose(ens.probabilities, [0.7, 0.3], atol=1e-12)
        assert ens.states[0].equals_up_to_phase(ghz_state())
        assert ens.states[1].equals_up_to_phase(w_state())

    def test_pure_input(self, rng):
        psi = random_pure(SystemShape((2, 2)), rng)
        ens = spectral_ensemble(psi.density())
        assert len(ens.states) == 1
        assert ens.states[0].equals_up_to_phase(psi)

    def test_degenerate_tie_break(self):
        mm = DensityMatrix(SystemShape((2,)), np.eye(2) / 2)
        ens = spectral_ensemble(mm)
        assert np.allclose(ens.probabilities, [0.5, 0.5])
        assert ens.states[0].equals_up_to_phase(basis_state(SystemShape((2,)), 0))
        assert ens.states[1].equals_up_to_phase(basis_state(SystemShape((2,)), 1))

    def test_mixture_reconstructs(self, rng):
        rho = random_density(SystemShape((2, 2)), rng)
        ens = spectral_ensemble(rho)
        assert np.max(np.abs(ens.mixture().entries - rho.entries)) < 1e-9

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [np.inf, 0.0], [0.5, np.nan]])
    def test_non_finite_probabilities_rejected(self, p):
        states = (ghz_state(), w_state())
        with pytest.raises(InvariantError):
            locc.Ensemble(np.array(p), states)

    @pytest.mark.parametrize("p", [np.array([1j, 0]), np.array([1 + 0j, 0j])],
                             ids=["imaginary", "zero-imaginary"])
    def test_complex_probabilities_rejected(self, p):
        with pytest.raises(InvariantError, match="real numbers"):
            locc.Ensemble(p, (ghz_state(), w_state()))

    @pytest.mark.parametrize("p", [np.array([[1.0]]), np.array(1.0)])
    def test_probabilities_not_a_vector_rejected(self, p):
        with pytest.raises(InvariantError, match="one axis"):
            locc.Ensemble(p, (ghz_state(),))

    @pytest.mark.parametrize("p, states", [
        ([0.5, 0.5], (ghz_state(),)), ([1.0], (ghz_state(), w_state())),
        ([0.5, 0.5], (ghz_state(), max_entangled(2)))],
        ids=["fewer-states", "more-states", "two-shapes"])
    def test_states_match_probabilities_and_shape(self, p, states):
        with pytest.raises(InvariantError, match="^ensemble states must match"):
            locc.Ensemble(p, states)

    def test_owns_its_probabilities(self):
        # the caller's array stays writable, and changing it leaves the
        # validated ensemble as it was
        p = np.array([0.5, 0.5])
        ens = locc.Ensemble(p, (ghz_state(), w_state()))
        assert ens.probabilities is not p
        p[0] = 0.9
        assert ens.probabilities.tolist() == [0.5, 0.5]
        assert not ens.probabilities.flags.writeable


class TestSynthesis:
    def test_pure_bell_target(self):
        bell = max_entangled(2).density()
        plan, emp, td = lccc_synthesize_bipartite(bell, 1000, 7)
        assert len(plan.ensemble.states) == 1
        assert td <= 1e-9

    def test_mixed_target_concentration(self):
        bell = max_entangled(2).density().entries
        rho = DensityMatrix(SystemShape((2, 2)),
                            0.5 * bell + 0.5 * np.diag([1.0, 0, 0, 0]))
        _, _, td = lccc_synthesize_bipartite(rho, 10 ** 5, 123)
        assert td <= 0.02

    def test_maximally_mixed_target(self):
        rho = DensityMatrix(SystemShape((2, 2)), np.eye(4) / 4)
        _, _, td = lccc_synthesize_bipartite(rho, 10 ** 5, 5)
        assert td <= 0.02

    def test_plan_reconstructs_before_sampling(self, rng):
        rho = random_density(SystemShape((2, 2)), rng)
        plan = build_synthesis_plan(rho)
        plan.verify()

    def test_plan_for_another_target_fails(self, rng):
        plan = build_synthesis_plan(random_density(SystemShape((2, 2)), rng))
        other = locc.SynthesisPlan(plan.ensemble, plan.protocols,
                                   DensityMatrix(SystemShape((2, 2)), np.eye(4) / 4))
        with pytest.raises(InvariantError,
                           match="^ensemble does not reconstruct the target"):
            other.verify()

    def test_protocol_for_another_state_fails(self):
        # a Bell plan's ensemble and target with the first protocol of the
        # plan of I/4: the ensemble reconstructs the target, but protocol 0
        # converts to another state, so the plan synthesizes something else
        bell = build_synthesis_plan(max_entangled(2).density())
        mixed = build_synthesis_plan(DensityMatrix(SystemShape((2, 2)),
                                                   np.eye(4) / 4))
        plan = locc.SynthesisPlan(bell.ensemble, mixed.protocols[:1], bell.target)
        assert simulate_synthesis(plan, 1000, 0)[1] > 0.7
        with pytest.raises(InvariantError,
                           match="^protocol 0 does not convert to ensemble state 0"):
            plan.verify()

    def test_simulation_deterministic(self, rng):
        rho = random_density(SystemShape((2, 2)), rng)
        plan = build_synthesis_plan(rho)
        emp1, td1 = simulate_synthesis(plan, 30000, 99)
        emp2, td2 = simulate_synthesis(plan, 30000, 99)
        assert td1 == td2
        assert np.array_equal(emp1.entries, emp2.entries)

    def test_chunking_invariant(self, rng):
        # a large, odd draw count gives the same empirical state again, bit
        # for bit, now that the counts come from one multinomial draw
        rho = random_density(SystemShape((2, 2)), rng)
        plan = build_synthesis_plan(rho)
        emp1, _ = simulate_synthesis(plan, (1 << 14) + 17, 3)
        emp2, _ = simulate_synthesis(plan, (1 << 14) + 17, 3)
        assert np.array_equal(emp1.entries, emp2.entries)

    def test_counts_are_one_multinomial_draw(self, rng):
        # the empirical state is the count-weighted mixture of the corrected
        # outcome states, with counts from one multinomial draw
        rho = random_density(SystemShape((2, 3)), rng)
        plan = build_synthesis_plan(rho)
        emp, _ = simulate_synthesis(plan, 5000, 17)
        states, probs = [], []
        for p, proto in zip(plan.ensemble.probabilities, plan.protocols):
            for m in range(proto.n_outcomes):
                states.append(proto.outcome_state(m)[1].density().entries)
                probs.append(p / proto.n_outcomes)
        counts = np.random.default_rng(17).multinomial(5000, probs)
        expected = sum(c / 5000 * s for c, s in zip(counts, states))
        assert np.max(np.abs(emp.entries - expected)) < 1e-12

    @pytest.mark.parametrize("d, td, e00, e01", [
        (2, 0.0014680927850130503, 0.10425216982291692,
         -0.08490756391988091 + 0.08468741509493333j),
        (3, 0.0038758790094078847, 0.07146975868711898,
         -0.01823764233729007 + 0.0087322879804426j),
        (4, 0.005210265288093168, 0.0750819070608714,
         -0.009131891660486337 - 0.012845214598501561j),
    ], ids=("2x2", "3x3", "4x4"))
    def test_seeded_synthesis_pinned(self, d, td, e00, e01):
        # values of the per-outcome implementation; computing all outcome
        # states of a protocol in one pass leaves them unchanged bit for bit
        rho = random_density(SystemShape((d, d)), np.random.default_rng(50 + d))
        emp, got = simulate_synthesis(build_synthesis_plan(rho), 100003, 7)
        assert got == td
        assert emp.entries[0, 0] == e00
        assert emp.entries[0, 1] == e01

    def test_outcome_states_match_single_outcomes(self, rng):
        proto = build_conversion(random_pure(SystemShape((3, 3)), rng), CUT)
        states = proto.outcome_states()
        assert len(states) == 3
        for m, (prob, state) in enumerate(states):
            one_prob, one = proto.outcome_state(m)
            assert prob == one_prob
            assert np.array_equal(state.amplitudes, one.amplitudes)

    @pytest.mark.parametrize("dims, seed, digest", [
        ((3, 3), 71,
         "1767d46f638412970575599ea2724d748124be68d6056784216237543ab9650c"),
        ((2, 4), 72,
         "66a8a8fcbd86f78a1bf6dabc0bbd59a3270b6ddcb6536d8153464353632c8c2e"),
    ], ids=("3x3", "2x4"))
    def test_seeded_plan_document_pinned(self, dims, seed, digest):
        # SHA-256 of the plan document's JSON text as the per-protocol
        # builder and per-matrix encoder wrote it; building and encoding
        # every protocol of a plan as one stack leaves the bytes unchanged
        rho = random_density(SystemShape(dims), np.random.default_rng(seed))
        text = json.dumps(serialize.plan_to_dict(build_synthesis_plan(rho)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("dims, cut", [
        ((2, 2), CUT), ((2, 3), CUT), ((4, 4), CUT),
        ((2, 2, 2), ((0, 1), (2,))),
    ], ids=("2x2", "2x3", "4x4", "2x2x2_01|2"))
    def test_stacked_protocols_match_single_builds(self, dims, cut, rng):
        # a plan's protocols, built as one stack, equal the one-target
        # builds bit for bit; their outcome states equal the per-outcome
        # reference (one np.linalg.norm per outcome) bit for bit.  Synthesis
        # plans cut 0|1, so the 0,1|2 case stacks a spectral ensemble
        for _ in range(8):
            rho = random_density(SystemShape(dims), rng)
            if cut == CUT:
                plan = build_synthesis_plan(rho)
                states, stacked = plan.ensemble.states, plan.protocols
            else:
                states = spectral_ensemble(rho).states
                stacked = locc._build_conversions(states, cut)
            assert len(stacked) == len(states) > 1
            norms, amps = locc._outcome_amplitudes(stacked)
            d = stacked[0].n_outcomes
            for j, (psi, proto) in enumerate(zip(states, stacked, strict=True)):
                one = build_conversion(psi, cut)
                assert one.cut == proto.cut
                assert _same_bits(one.alice_kraus, proto.alice_kraus)
                for (a1, b1), (a2, b2) in zip(one.corrections, proto.corrections,
                                              strict=True):
                    assert _same_bits(a1, a2) and _same_bits(b1, b2)
                left, right, dl, dr = _cut_permutation(psi.shape, cut)
                post = one.alice_kraus @ locc._precursor_matrix(d, dl, dr)
                ref_norms = np.array([np.linalg.norm(p) for p in post])
                a, b = (np.stack(side) for side in zip(*one.corrections))
                ref = a @ (post / ref_norms[:, None, None]) @ np.swapaxes(b, -1, -2)
                ref = _fold(ref, psi.shape, left, right)
                assert np.array_equal(norms[j * d:(j + 1) * d], ref_norms)
                assert _same_bits(amps[j * d:(j + 1) * d], ref)
                for m, (prob, state) in enumerate(one.outcome_states()):
                    assert prob == float(ref_norms[m] ** 2)
                    assert _same_bits(state.amplitudes, ref[m])

    def test_mixed_protocols_rejected(self, rng):
        # one outcome pass needs one shape, cut and outcome count
        a = build_conversion(random_pure(SystemShape((2, 2)), rng), CUT)
        for b in (build_conversion(random_pure(SystemShape((3, 3)), rng), CUT),
                  build_conversion(random_pure(SystemShape((2, 2)), rng),
                                   ((1,), (0,)))):
            with pytest.raises(InvariantError, match="share one shape"):
                locc._outcome_amplitudes((a, b))

    @pytest.mark.parametrize("n", [0, -5, 2 ** 63, 2.5, True, "100"])
    def test_bad_sample_count_rejected(self, n):
        plan = build_synthesis_plan(max_entangled(2).density())
        with pytest.raises(InvariantError):
            simulate_synthesis(plan, n, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        plan = build_synthesis_plan(max_entangled(2).density())
        with pytest.raises(InvariantError):
            simulate_synthesis(plan, 100, seed)

    def test_not_bipartite(self):
        with pytest.raises(UnsupportedError):
            lccc_synthesize_bipartite(z_mixture(0.5), 100, 0)
