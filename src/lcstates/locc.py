"""Bipartite LOCC machinery.

Implements the majorization criterion for deterministic pure-state
conversion, an explicit protocol turning a maximally entangled state into
any target of compatible Schmidt rank with probability one, and the
synthesis of an arbitrary bipartite density matrix from that protocol plus
shared randomness (the LCCC route: Alice samples an ensemble element,
announces it, and both parties steer the maximally entangled precursor to
the sampled pure state).
"""

from dataclasses import dataclass

import numpy as np

from .channels import _completeness_residual
from .states import (ATOL, DensityMatrix, InvariantError, PureState,
                     UnsupportedError, _check_int, _check_type,
                     _check_unit_rows, _cut_permutation, _fold, _unfold,
                     distance, schmidt_decompose)


# ---------------------------------------------------------------------------
# majorization


MAJORIZATION_SLACK = 1e-12


def _distribution(p):
    """p as a float array of its own (a copy, as `_as_complex` makes);
    raises unless it is a vector (one axis) of real numbers that numpy
    converts (the conversion's own errors become InvariantErrors), finite,
    non-negative and summing to 1 within ATOL.  A complex dtype is refused
    even with zero imaginary parts: numpy's cast would drop them."""
    try:
        if np.iscomplexobj(p):
            raise TypeError
        p = np.array(p, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvariantError("probability vectors must be arrays of real "
                             f"numbers, got {type(p).__name__}") from None
    if p.ndim != 1:
        raise InvariantError("probability vectors must have one axis, "
                             f"got shape {p.shape}")
    if not np.isfinite(p).all():
        raise InvariantError("probability vectors must be finite")
    if (p < 0).any():
        raise InvariantError("probability vectors must be non-negative")
    if not abs(p.sum() - 1) <= ATOL:
        raise InvariantError("probability vectors must sum to 1")
    return p


def majorizes(x, y):
    """True iff x majorizes y: every prefix sum of sorted-descending x
    dominates the corresponding prefix sum of y (within MAJORIZATION_SLACK)."""
    x, y = _distribution(x), _distribution(y)
    m = max(len(x), len(y))
    xs = np.sort(np.concatenate([x, np.zeros(m - len(x))]))[::-1]
    ys = np.sort(np.concatenate([y, np.zeros(m - len(y))]))[::-1]
    return bool(np.all(np.cumsum(xs) >= np.cumsum(ys) - MAJORIZATION_SLACK))


def can_convert(psi, phi, cut):
    """Deterministic LOCC convertibility psi -> phi across a cut.

    Nielsen's criterion: possible iff the squared Schmidt coefficients of
    the target majorize those of the source.  psi and phi must be
    PureStates (`_check_type`).
    """
    _check_type("psi", psi, PureState)
    _check_type("phi", phi, PureState)
    if psi.shape != phi.shape:
        raise InvariantError("states must share one shape")
    lam_src = schmidt_decompose(psi, cut).coefficients ** 2
    lam_tgt = schmidt_decompose(phi, cut).coefficients ** 2
    return majorizes(lam_tgt, lam_src)


# ---------------------------------------------------------------------------
# deterministic conversion protocol


def _precursor_matrix(d, dl, dr):
    """|Phi+> on the first d levels of each side, as a dl x dr matrix."""
    src = np.zeros((dl, dr), dtype=complex)
    src[np.arange(d), np.arange(d)] = 1 / np.sqrt(d)
    return src


@dataclass(frozen=True, eq=False)
class ConversionProtocol:
    """Measure-and-correct recipe taking |Phi+> to a fixed target.

    Alice measures with d diagonal Kraus operators; every outcome occurs
    with probability exactly 1/d, and the per-outcome local unitary
    corrections restore the target with certainty.  target must be a
    PureState (`_check_type`).
    """

    target: PureState
    cut: tuple                     # (left parties, right parties), each sorted
    alice_kraus: np.ndarray        # (d, dl, dl), each diagonal
    corrections: tuple             # d pairs (A_m, B_m) of unitaries

    def __post_init__(self):
        _check_type("target", self.target, PureState)

    @property
    def n_outcomes(self):
        return self.alice_kraus.shape[0]

    def precursor(self):
        """The maximally entangled precursor, embedded across the cut."""
        shape = self.target.shape
        left, right, dl, dr = _cut_permutation(shape, self.cut)
        return PureState(shape, _fold(_precursor_matrix(self.n_outcomes, dl, dr),
                                      shape, left, right))

    def outcome_states(self):
        """[(probability, corrected PureState)] for every outcome, computed
        exactly in one pass from one precursor; each outcome state is
        validated."""
        norms, amps = _outcome_amplitudes((self,))
        return [(float(n ** 2), PureState(self.target.shape, v))
                for n, v in zip(norms, amps)]

    def outcome_state(self, m):
        """(probability, corrected PureState) for outcome m, an integer in
        [0, n_outcomes - 1] (`_check_int`)."""
        m = _check_int("m", m, 0, self.n_outcomes - 1)
        return self.outcome_states()[m]

    def verify(self):
        """Raise unless completeness, uniform outcomes, and unit fidelity hold."""
        d = self.n_outcomes
        if not _completeness_residual(self.alice_kraus) <= 1e-10:
            raise InvariantError("Alice's measurement is not complete")
        for m, (prob, state) in enumerate(self.outcome_states()):
            if abs(prob - 1 / d) > ATOL:
                raise InvariantError(f"outcome {m} has probability {prob}, not 1/{d}")
            if abs(abs(state.overlap(self.target)) ** 2 - 1.0) > ATOL:
                raise InvariantError(f"outcome {m} does not reproduce the target")


def _outcome_amplitudes(protocols):
    """Corrected outcome amplitudes of protocols that share one shape, cut
    and outcome count, in one pass from one precursor.

    Returns the outcome norms, shape (M*d,), and the normalised corrected
    amplitudes, shape (M*d, D), protocol-major.  The amplitudes get
    PureState's checks (`_check_unit_rows`).
    """
    first = protocols[0]
    shape, cut, d = first.target.shape, first.cut, first.n_outcomes
    if any(p.target.shape != shape or p.cut != cut or p.n_outcomes != d
           for p in protocols):
        raise InvariantError("protocols must share one shape, cut and outcome count")
    left, right, dl, dr = _cut_permutation(shape, cut)
    post = np.stack([p.alice_kraus for p in protocols]) @ _precursor_matrix(d, dl, dr)
    # each outcome's Frobenius norm, summed as np.linalg.norm sums it (one
    # real and one imaginary dot product), so seeded synthesis results keep
    # the bits their tests pin
    flat = post.reshape(-1, 1, dl * dr)
    re, im = flat.real, flat.imag
    norms = np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)).reshape(-1)
    a, b = _stacked_corrections(protocols)
    post = a @ (post / norms.reshape(-1, d, 1, 1)) @ np.swapaxes(b, -1, -2)
    amps = _fold(post, shape, left, right).reshape(len(norms), -1)
    _check_unit_rows(amps)
    return norms, amps


def _stacked_corrections(protocols):
    """(A, B): Alice's and Bob's corrections of M protocols that share one
    shape, cut and outcome count d, stacked to (M, d, dl, dl) and
    (M, d, dr, dr)."""
    return tuple(np.stack([[c[side] for c in p.corrections] for p in protocols])
                 for side in (0, 1))


def _shifted_columns(w, shift):
    """(M, n, n) unitaries -> (M, d, n, n): for each m, column i < d of w
    replaced by column shift[m, i] = (i + m) mod d, the columns from d on
    kept; that is w times the modular shift by m, as a gather."""
    n, d = w.shape[-1], len(shift)
    cols = np.concatenate([shift, np.broadcast_to(np.arange(d, n), (d, n - d))],
                          axis=1)
    return np.ascontiguousarray(np.swapaxes(w[:, :, cols], 1, 2))


def _build_conversions(targets, cut):
    """build_conversion for every target of a sequence over one shape: the
    cut is validated and sorted once (`_cut_permutation`), and one SVD of
    the stacked unfoldings (`_unfold`) serves all targets."""
    shape = targets[0].shape
    left, right, dl, dr = _cut_permutation(shape, cut)
    d = min(dl, dr)
    u, s, vh = np.linalg.svd(_unfold(np.stack([psi.amplitudes for psi in targets]),
                                     shape, left, right))
    lam = s ** 2
    lam = lam / lam.sum(axis=-1, keepdims=True)

    shift = (np.arange(d)[:, None] + np.arange(d)) % d     # shift[m, i]
    diag = np.full((len(targets), d, dl), 1 / np.sqrt(d))
    diag[:, :, :d] = np.sqrt(lam[:, shift])
    kraus = np.zeros((len(targets), d, dl, dl), dtype=complex)
    kraus[:, :, np.arange(dl), np.arange(dl)] = diag
    ua = _shifted_columns(u, shift)
    ub = _shifted_columns(np.swapaxes(vh, -1, -2), shift)
    return tuple(ConversionProtocol(target=psi, cut=(left, right),
                                    alice_kraus=kraus[j],
                                    corrections=tuple(zip(ua[j], ub[j])))
                 for j, psi in enumerate(targets))


def build_conversion(target, cut):
    """Protocol producing `target` from the maximally entangled state with
    probability one.

    One SVD U diag(s) V^T of the target's dl x dr unfolding across the cut
    gives everything.  Each side of the cut is sorted, so the protocol's
    `cut` lists each side's parties in ascending order, whatever order the
    caller gave.  With squared Schmidt coefficients lam_i = s_i^2
    over the d = min(dl, dr) levels, Alice's m-th Kraus operator is
    diag(sqrt(lam_{(i+m) mod d})) on the first d levels and 1/sqrt(d)
    above; completeness follows from sum_i lam_i = 1 and every outcome
    occurs with probability exactly 1/d.  The corrections for outcome m
    are U and V^T with their first d columns shifted cyclically by m
    (a column gather), which undoes the shift the outcome leaves.  target
    must be a PureState (`_check_type`).
    """
    _check_type("target", target, PureState)
    return _build_conversions((target,), cut)[0]


# ---------------------------------------------------------------------------
# ensembles and LCCC synthesis


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Mixture of pure states: pairs (p_mu, psi_mu) over one shape.

    states must be a tuple of PureStates (`_check_type`).
    """

    probabilities: np.ndarray
    states: tuple

    def __post_init__(self):
        p = _distribution(self.probabilities)
        _check_type("states", self.states, tuple)
        for i, s in enumerate(self.states):
            _check_type(f"ensemble state {i}", s, PureState)
        shapes = {s.shape for s in self.states}
        if len(self.states) != len(p) or len(shapes) != 1:
            raise InvariantError("ensemble states must match probabilities and share a shape")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    def mixture(self):
        shape = self.states[0].shape
        m = sum(p * np.outer(s.amplitudes, s.amplitudes.conj())
                for p, s in zip(self.probabilities, self.states))
        return DensityMatrix(shape, m)


def spectral_ensemble(rho):
    """rho's support eigensystem (`DensityMatrix.eigensystem`) as an
    Ensemble: eigenvalues above RANK_TOL, largest first.

    Degenerate eigenspaces are resolved by the package-wide deterministic
    disambiguation, so the output depends only on the input bits.  rho
    must be a DensityMatrix (`_check_type`).
    """
    _check_type("rho", rho, DensityMatrix)
    w, v = rho.eigensystem()
    states = tuple(PureState(rho.shape, v[:, i] / np.linalg.norm(v[:, i]))
                   for i in range(len(w)))
    return Ensemble(w / w.sum(), states)


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Ensemble for a bipartite target plus one conversion protocol per
    element: ensemble an Ensemble, target a DensityMatrix of the ensemble
    states' shape and protocols a tuple of ConversionProtocols, one per
    ensemble state (`_check_type`)."""

    ensemble: Ensemble
    protocols: tuple
    target: DensityMatrix

    def __post_init__(self):
        _check_type("ensemble", self.ensemble, Ensemble)
        _check_type("target", self.target, DensityMatrix)
        _check_type("protocols", self.protocols, tuple)
        for i, proto in enumerate(self.protocols):
            _check_type(f"protocol {i}", proto, ConversionProtocol)
        if len(self.protocols) != len(self.ensemble.states):
            raise InvariantError("protocols must be one per ensemble state, got "
                                 f"{len(self.protocols)} for {len(self.ensemble.states)}")
        shape = self.ensemble.states[0].shape
        if self.target.shape != shape:
            raise InvariantError(
                f"target must be of the ensemble states' shape {shape.local_dims}, "
                f"got {self.target.shape.local_dims}")

    def verify(self):
        """Raise unless the ensemble reconstructs the target, protocol i
        converts to ensemble state i (up to phase) and each protocol
        verifies."""
        recon = self.ensemble.mixture()
        if np.max(np.abs(recon.entries - self.target.entries)) > ATOL:
            raise InvariantError("ensemble does not reconstruct the target")
        for i, (proto, state) in enumerate(zip(self.protocols, self.ensemble.states)):
            if not proto.target.equals_up_to_phase(state):
                raise InvariantError(
                    f"protocol {i} does not convert to ensemble state {i}")
            proto.verify()


def build_synthesis_plan(rho):
    """Spectral ensemble of rho, a bipartite DensityMatrix
    (`_check_type`, checked first), plus a conversion protocol per element.
    A target of another party count is an UnsupportedError: this plan is
    the bipartite construction, and not every multipartite mixed state is
    LCCC."""
    _check_type("rho", rho, DensityMatrix)
    if rho.shape.n_parties != 2:
        raise UnsupportedError("synthesis is implemented for bipartite states only")
    ens = spectral_ensemble(rho)
    cut = ((0,), (1,))
    protocols = _build_conversions(ens.states, cut)
    return SynthesisPlan(ensemble=ens, protocols=protocols, target=rho)


def simulate_synthesis(plan, n_samples, seed):
    """Monte-Carlo run of the synthesis protocol.

    Every shot draws the shared random variable mu ~ p_mu and one of
    Alice's d equiprobable measurement outcomes, so the shot counts per
    (mu, outcome) pair are one multinomial draw of n_samples over the
    probabilities p_mu / d from ``default_rng(seed)``.  The empirical
    state is the count-weighted mixture of the corrected outcome states,
    computed for all protocols in one stacked pass (they must share one
    shape, cut and outcome count, else InvariantError); its cost grows
    with the number of outcomes, not with n_samples.
    Returns the empirical state and its trace distance to the target.
    plan must be a SynthesisPlan (`_check_type`), checked first.
    """
    _check_type("plan", plan, SynthesisPlan)
    _check_shots(n_samples, seed)
    _, amps = _outcome_amplitudes(plan.protocols)
    d = plan.protocols[0].n_outcomes
    probs = np.repeat(plan.ensemble.probabilities / d, d)
    counts = np.random.default_rng(seed).multinomial(n_samples, probs)
    emp = (amps.T * (counts / n_samples)) @ amps.conj()
    empirical = DensityMatrix(plan.target.shape, emp, symmetrize=True)
    return empirical, distance("trace", empirical, plan.target)


def _check_shots(n_samples, seed):
    """Raise unless n_samples is an integer in [1, 2^63) and seed one >= 0
    (`_check_int`)."""
    _check_int("n_samples", n_samples, 1, np.iinfo(np.int64).max)
    _check_int("seed", seed, 0)


def lccc_synthesize_bipartite(rho, n_samples, seed):
    """Full pipeline: plan, simulate, report (plan, empirical, trace distance).

    Every argument is checked before the plan decides the scope: rho must
    be a DensityMatrix (`_check_type`), then n_samples and seed as
    `simulate_synthesis` takes them (`_check_shots`); only then is a
    target that is not bipartite an UnsupportedError."""
    _check_type("rho", rho, DensityMatrix)
    _check_shots(n_samples, seed)
    plan = build_synthesis_plan(rho)
    empirical, td = simulate_synthesis(plan, n_samples, seed)
    return plan, empirical, td
