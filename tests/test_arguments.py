"""Argument rules of the public constructors: one rule per argument kind.

Integers go through `states._check_int`, real weights through
`states._check_real`; a malformed value is an InvariantError naming the
argument, and a valid value gives the same bits whatever its numeric type.
"""

import hashlib

import numpy as np
import pytest

from lcstates import (ConversionProtocol, DensityMatrix, Ensemble,
                      InvariantError, LCConfiguration, LocalChannel,
                      PureState, SynthesisPlan, SystemShape,
                      UnsupportedError, adjoint_channel, serialize,
                      apply_product_channel, basis_state, build_conversion,
                      build_synthesis_plan, can_convert, canonical_state,
                      channel_from_environment_gram, classify_three_qubit,
                      dephasing_channel, depolarizing_channel, distance,
                      environment_gram_from_channel, ghz_state,
                      identity_channel, lc_distance_search,
                      lccc_obstruction_check, lccc_synthesize_bipartite,
                      marginal_ranks, max_entangled,
                      parameter_counts, partial_trace,
                      precursor_optimal_for_channels, purify,
                      random_local_channel, schmidt_decompose,
                      simulate_synthesis, spectral_ensemble, standard_noise,
                      tensor_product, three_tangle, z_mixture)
from lcstates.channels import (amplitude_damping_channel,
                               apply_adjoint_product_channel)
from lcstates.locc import majorizes

DIMS = (2, 3, 4)
WEIGHTS = (0, 0.3, 1)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of the concatenated bytes over the grid, recorded before the
# constructors' argument checks were rewritten
PINNED = {
    "identity": (lambda: (identity_channel(d).kraus for d in DIMS),
                 "6990dd79a8f7508ef1db52f730e7e97cefc96f9cedd0ebb553f7e9fcfc3a3526"),
    "depolarizing": (lambda: (depolarizing_channel(d, p).kraus
                              for d in DIMS for p in WEIGHTS),
                     "ada4a66da521bf796b1fe2f20ad663ca308cb87f04b762937e0bd03e659f4012"),
    "dephasing": (lambda: (dephasing_channel(d, p).kraus
                           for d in DIMS for p in WEIGHTS),
                  "7d59f565faeb30edb32fe19fea1752b8888eae283bb4d42c747cdf9795b00f97"),
    "amplitude_damping": (lambda: (amplitude_damping_channel(p).kraus
                                   for p in WEIGHTS),
                          "14f2c29509a4bee7502e0576bc5593aca63d4adb82b407f31292b4adb2c58f57"),
    "z_mixture": (lambda: (z_mixture(p).entries for p in WEIGHTS),
                  "e5507b056ac6baa4c50aa9bdb8b0e4f284d8f270df829e8b160107b0b6ddf00f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_constructor_bytes_pinned(name):
    arrays, expect = PINNED[name]
    assert _digest(arrays()) == expect


INT_BAD = (2.5, True, "2", None)
# not a collection at all: an integer where a list of them is expected
NOT_A_COLLECTION = (0, 2, 2.5, True, None)
REAL_BAD = (float("nan"), float("inf"), -0.1, 1.5, 10 ** 400, True, "0.1",
            None)
# not a DensityMatrix: a number, nothing, a pure state
NOT_A_DENSITY = (5, None, ghz_state())
# not a PureState: a number, nothing, a density matrix
NOT_A_PURE = (5, None, z_mixture(0.5))
# not a SystemShape: a number, nothing, a tuple of local dimensions
NOT_A_SHAPE = (5, None, (2,))
CUT = ((0,), (1,))
# a valid plan of one ensemble state, whose parts the plan rows replace
PLAN = build_synthesis_plan(max_entangled(2).density())
PROTO = PLAN.protocols[0]

# (entry point of one argument, the name its message gives, malformed values)
CASES = [
    (lambda v: identity_channel(v), "d", INT_BAD + (0, -1)),
    (lambda v: identity_channel(2, v), "env_dim", INT_BAD + (0, -1, 5)),
    (lambda v: depolarizing_channel(v, 0.1), "d", INT_BAD + (0, -1)),
    (lambda v: dephasing_channel(v, 0.1), "d", INT_BAD + (0, -1, 1)),
    (lambda v: random_local_channel(v, 1, 0), "d", INT_BAD + (0, -1)),
    (lambda v: random_local_channel(2, 1, v), "seed", INT_BAD + (-1,)),
    (lambda v: ghz_state(v, 2), "n", INT_BAD + (0, -1)),
    (lambda v: ghz_state(3, v), "d", INT_BAD + (0, -1)),
    (lambda v: max_entangled(v), "d", INT_BAD + (0, -1)),
    (lambda v: canonical_state("w", n=v), "n", INT_BAD + (0, -1)),
    (lambda v: standard_noise("amplitude_damping", v, 0.5), "d",
     INT_BAD + (0, -1)),
    (lambda v: parameter_counts(v, 2), "n", INT_BAD + (2.0, 0, -1)),
    (lambda v: parameter_counts(3, v), "d", INT_BAD + (2.0, 0, 1)),
    (lambda v: depolarizing_channel(2, v), "noise strength p", REAL_BAD),
    (lambda v: dephasing_channel(2, v), "noise strength p", REAL_BAD),
    (lambda v: amplitude_damping_channel(v), "noise strength p", REAL_BAD),
    (lambda v: z_mixture(v), "mixing weight p", REAL_BAD),
    (lambda v: partial_trace(z_mixture(0.5), v), "keep", NOT_A_COLLECTION),
    (lambda v: purify(z_mixture(0.5), v), "ancilla_dims",
     NOT_A_COLLECTION + ((), (0,), (2.5,), ("2",))),
    (lambda v: canonical_state(v), "kind", (3, None, 2.5, ("ghz",), "foo")),
    (lambda v: canonical_state("basis", dims=v, index=0), "dims",
     NOT_A_COLLECTION + ((), (0, 2))),
    (lambda v: distance("trace", v, z_mixture(0.5)), "a",
     (ghz_state(), z_mixture(0.5).entries, None)),
    (lambda v: distance("trace", z_mixture(0.5), v), "b",
     (ghz_state(), z_mixture(0.5).entries, None)),
    # a channel list without a length (a number, None, a generator)
    (lambda v: apply_product_channel(v, z_mixture(0.5)), "channels",
     (5, None, 2.5, iter([identity_channel(2)] * 3))),
    (lambda v: apply_adjoint_product_channel(v, np.eye(8), (2, 2, 2)),
     "channels", (5, None)),
    (lambda v: precursor_optimal_for_channels(v, z_mixture(0.5)), "channels",
     (5, None)),
    (lambda v: adjoint_channel(v), "c", (None, 5, identity_channel(2).kraus)),
    (lambda v: environment_gram_from_channel(v), "c",
     (None, 5, identity_channel(2).kraus)),
    # the density-matrix argument, checked before any other
    (lambda v: apply_product_channel([identity_channel(2)] * 3, v), "rho",
     NOT_A_DENSITY),
    (lambda v: precursor_optimal_for_channels([identity_channel(2)] * 3, v),
     "target", NOT_A_DENSITY),
    (lambda v: lc_distance_search(v), "target", NOT_A_DENSITY),
    (lambda v: lc_distance_search(v, restarts=0), "target", NOT_A_DENSITY),
    (lambda v: lccc_obstruction_check(v), "rho", NOT_A_DENSITY),
    (lambda v: spectral_ensemble(v), "rho", NOT_A_DENSITY),
    (lambda v: build_synthesis_plan(v), "rho", NOT_A_DENSITY),
    (lambda v: partial_trace(v, (0,)), "rho", NOT_A_DENSITY),
    (lambda v: purify(v, (2,)), "rho", NOT_A_DENSITY),
    # the pure-state argument (and a synthesis plan), checked before any
    # other
    (lambda v: schmidt_decompose(v, CUT), "psi", NOT_A_PURE),
    (lambda v: classify_three_qubit(v), "psi", NOT_A_PURE),
    (lambda v: three_tangle(v), "psi", NOT_A_PURE),
    (lambda v: marginal_ranks(v), "psi", NOT_A_PURE),
    (lambda v: build_conversion(v, CUT), "target", NOT_A_PURE),
    (lambda v: can_convert(v, max_entangled(2), CUT), "psi", NOT_A_PURE),
    (lambda v: can_convert(max_entangled(2), v, CUT), "phi", NOT_A_PURE),
    (lambda v: LCConfiguration(v, (identity_channel(2),) * 3), "precursor",
     NOT_A_PURE),
    (lambda v: simulate_synthesis(v, 10, 0), "plan", NOT_A_PURE),
    # rows added after the ids above were fixed, so those keep their index
    (lambda v: channel_from_environment_gram(v), "g",
     (None, 5, np.eye(4), identity_channel(2))),
    (lambda v: PureState(v, [1, 0]), "shape", NOT_A_SHAPE),
    (lambda v: DensityMatrix(v, np.eye(2) / 2), "shape", NOT_A_SHAPE),
    (lambda v: basis_state(v, 0), "shape", NOT_A_SHAPE),
    (lambda v: Ensemble([1.0], v), "states", (5, None, [ghz_state()])),
    (lambda v: Ensemble([1.0], (v,)), "ensemble state 0", NOT_A_PURE),
    (lambda v: Ensemble([0.5, 0.5], (ghz_state(), v)), "ensemble state 1",
     NOT_A_PURE),
    (lambda v: build_conversion(max_entangled(2), CUT).outcome_state(v), "m",
     INT_BAD + (-1, 2)),
    (lambda v: ghz_state().overlap(v), "other", NOT_A_PURE),
    (lambda v: ghz_state().equals_up_to_phase(v), "other", NOT_A_PURE),
    (lambda v: tensor_product(v, ghz_state()), "a",
     (5, None, ghz_state().amplitudes)),
    (lambda v: tensor_product(ghz_state(), v), "b", NOT_A_PURE),
    (lambda v: tensor_product(z_mixture(0.5), v), "b", NOT_A_DENSITY),
    # every argument is checked before the scope is decided: these used to
    # be an UnsupportedError (a three-party synthesis target, d = 3
    # amplitude damping, a four-party mixture)
    (lambda v: lccc_synthesize_bipartite(z_mixture(0.5), v, 0), "n_samples",
     INT_BAD + (0, -1, 2 ** 63)),
    (lambda v: lccc_synthesize_bipartite(z_mixture(0.5), 10, v), "seed",
     INT_BAD + (-1,)),
    (lambda v: standard_noise("amplitude_damping", 3, v), "noise strength p",
     REAL_BAD),
    (lambda v: canonical_state("z", n=4, p=v), "mixing weight p", REAL_BAD),
    # a kind's own parameters are checked too (d was ignored by W)
    (lambda v: canonical_state("w", d=v), "d", INT_BAD + (0, -1)),
    # an enumerated argument is one of its names (`_check_choice`)
    (lambda v: standard_noise(v, 2, 0.1), "kind",
     ("foo", "Depolarizing", None, 3, ["depolarizing"])),
    (lambda v: distance(v, z_mixture(0.5), z_mixture(0.5)), "metric",
     ("foo", "Trace", None, 3, ("trace",))),
    (lambda v: SystemShape(v), "local_dims", NOT_A_COLLECTION + ((), (0,))),
    # plan types are checked where they are built, and a channel where it
    # is written
    (lambda v: ConversionProtocol(v, CUT, PROTO.alice_kraus, PROTO.corrections),
     "target", NOT_A_PURE),
    (lambda v: SynthesisPlan(v, PLAN.protocols, PLAN.target), "ensemble",
     (5, None, PLAN.ensemble.states)),
    (lambda v: SynthesisPlan(PLAN.ensemble, PLAN.protocols, v), "target",
     NOT_A_DENSITY),
    # not a tuple, or not one protocol per ensemble state
    (lambda v: SynthesisPlan(PLAN.ensemble, v, PLAN.target), "protocols",
     (5, None, list(PLAN.protocols), (), PLAN.protocols * 2)),
    (lambda v: SynthesisPlan(PLAN.ensemble, (v,), PLAN.target), "protocol 0",
     (5, None, PLAN)),
    (lambda v: serialize.channel_to_dict(v), "channel",
     (5, None, identity_channel(2).kraus)),
    (lambda v: serialize.state_to_dict(v), "state",
     (5, None, ghz_state().amplitudes, identity_channel(2))),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{i}-{value!r}"[:24])
    for i, (call, name, bad) in enumerate(CASES) for value in bad])
def test_malformed_argument_names_itself(call, name, value):
    with pytest.raises(InvariantError, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("params, name", [
    ({"index": 0}, "dims"), ({"dims": (2, 2)}, "index")])
def test_basis_state_needs_dims_and_index(params, name):
    with pytest.raises(InvariantError, match=f"^{name} must be given"):
        canonical_state("basis", **params)


def test_ghz_outside_its_range_is_unsupported():
    # well-formed counts below what GHZ needs stay an UnsupportedError
    for n, d in ((1, 2), (3, 1)):
        with pytest.raises(UnsupportedError):
            ghz_state(n, d)
    with pytest.raises(UnsupportedError):
        max_entangled(1)


def test_numpy_scalars_give_the_same_bytes():
    i64, f64 = np.int64, np.float64
    for d in DIMS:
        assert (identity_channel(i64(d), i64(d)).kraus.tobytes()
                == identity_channel(d, d).kraus.tobytes())
        for p in WEIGHTS:
            for make in (depolarizing_channel, dephasing_channel):
                assert (make(i64(d), f64(p)).kraus.tobytes()
                        == make(d, p).kraus.tobytes())
                assert make(d, float(p)).kraus.tobytes() == make(d, p).kraus.tobytes()
    for p in WEIGHTS:
        assert (amplitude_damping_channel(f64(p)).kraus.tobytes()
                == amplitude_damping_channel(p).kraus.tobytes())
        assert z_mixture(f64(p)).entries.tobytes() == z_mixture(p).entries.tobytes()
    assert (ghz_state(i64(3), i64(3)).amplitudes.tobytes()
            == ghz_state(3, 3).amplitudes.tobytes())
    assert (random_local_channel(i64(3), 2, 4).kraus.tobytes()
            == random_local_channel(3, 2, 4).kraus.tobytes())
    pc = parameter_counts(i64(3), i64(2))
    assert pc == parameter_counts(3, 2)
    assert all(type(v) is int for v in (pc.n, pc.d, pc.pure_dim, pc.lc_bound,
                                        pc.mixed_dim))


def test_float32_weight_is_read_as_its_float_value():
    # the constructors compute with float(p): in float32 the Kraus
    # operators miss the completeness tolerance
    p32 = np.float32(0.3)
    for make in (lambda p: depolarizing_channel(3, p).kraus,
                 lambda p: dephasing_channel(3, p).kraus,
                 lambda p: amplitude_damping_channel(p).kraus,
                 lambda p: z_mixture(p).entries):
        assert make(p32).tobytes() == make(float(p32)).tobytes()


RAGGED = [[1, 0], [0]]


# input numpy cannot convert to an array of numbers: a ragged nesting, a
# string that is not a number, an object, a complex weight, an int beyond
# the float range
@pytest.mark.parametrize("call, match", [
    (lambda: majorizes(["a"], [1.0]), "probability vectors"),
    (lambda: majorizes([1j], [1.0]), "probability vectors"),
    (lambda: majorizes([1.0], [[1.0], [0.0, 0.0]]), "probability vectors"),
    (lambda: majorizes([10 ** 400], [1.0]), "probability vectors"),
    (lambda: LocalChannel(2, [[[1, 0], [0]]]), "entries"),
    (lambda: LocalChannel(2, object()), "entries"),
    (lambda: PureState(SystemShape((2,)), RAGGED), "entries"),
    (lambda: PureState(SystemShape((2,)), ["a", 1]), "entries"),
    (lambda: DensityMatrix(SystemShape((2,)), RAGGED), "entries"),
    (lambda: identity_channel(2)(RAGGED), "entries"),
], ids=["str-weight", "complex-weight", "ragged-weights", "huge-weight",
        "ragged-kraus", "object-kraus", "ragged-amplitudes", "str-amplitude",
        "ragged-density", "ragged-channel-input"])
def test_unconvertible_input_is_invariant_error(call, match):
    with pytest.raises(InvariantError, match=f"^{match} must be"):
        call()
