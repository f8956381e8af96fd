"""Bipartite LOCC machinery.

Implements the majorization criterion for deterministic pure-state
conversion, an explicit protocol turning a maximally entangled state into
any target of compatible Schmidt rank with probability one, and the
synthesis of an arbitrary bipartite density matrix from that protocol plus
shared randomness (the LCCC route: Alice samples an ensemble element,
announces it, and both parties steer the maximally entangled precursor to
the sampled pure state).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .states import (ATOL, DensityMatrix, InvariantError, PureState,
                     RANK_TOL, _cut_permutation, deterministic_eigh, distance,
                     schmidt_decompose)


# ---------------------------------------------------------------------------
# majorization


MAJORIZATION_SLACK = 1e-12


def majorizes(x, y):
    """True iff x majorizes y: every prefix sum of sorted-descending x
    dominates the corresponding prefix sum of y (within MAJORIZATION_SLACK)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (x < 0).any() or (y < 0).any():
        raise InvariantError("probability vectors must be non-negative")
    if abs(x.sum() - 1) > ATOL or abs(y.sum() - 1) > ATOL:
        raise InvariantError("probability vectors must sum to 1")
    m = max(len(x), len(y))
    xs = np.sort(np.concatenate([x, np.zeros(m - len(x))]))[::-1]
    ys = np.sort(np.concatenate([y, np.zeros(m - len(y))]))[::-1]
    return bool(np.all(np.cumsum(xs) >= np.cumsum(ys) - MAJORIZATION_SLACK))


def can_convert(psi, phi, cut):
    """Deterministic LOCC convertibility psi -> phi across a cut.

    Nielsen's criterion: possible iff the squared Schmidt coefficients of
    the target majorize those of the source.
    """
    if psi.shape != phi.shape:
        raise InvariantError("states must share one shape")
    lam_src = schmidt_decompose(psi, cut).coefficients ** 2
    lam_tgt = schmidt_decompose(phi, cut).coefficients ** 2
    return majorizes(lam_tgt, lam_src)


# ---------------------------------------------------------------------------
# deterministic conversion protocol


def _cut_views(shape, cut):
    left, right = cut
    left, right = tuple(left), tuple(right)
    dims = shape.local_dims
    dl = int(np.prod([dims[k] for k in left]))
    dr = int(np.prod([dims[k] for k in right]))
    return left, right, dl, dr


def _from_cut_order(vec, shape, left, right):
    """Cut-ordered amplitudes -> party order; leading axes of vec are a batch."""
    dims = shape.local_dims
    perm = left + right
    batch = vec.shape[:-1]
    t = vec.reshape(*batch, *[dims[k] for k in perm])
    inv = [len(batch) + int(i) for i in np.argsort(perm)]
    return np.transpose(t, [*range(len(batch)), *inv]).reshape(*batch, -1)


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
    corrections restore the target with certainty.
    """

    target: PureState
    cut: tuple                     # (left parties, right parties)
    alice_kraus: np.ndarray        # (d, dl, dl), each diagonal
    corrections: tuple             # d pairs (A_m, B_m) of unitaries

    @property
    def n_outcomes(self):
        return self.alice_kraus.shape[0]

    def precursor(self):
        """The maximally entangled precursor, embedded across the cut."""
        left, right, dl, dr = _cut_views(self.target.shape, self.cut)
        vec = _precursor_matrix(self.n_outcomes, dl, dr).reshape(-1)
        return PureState(self.target.shape,
                         _from_cut_order(vec, self.target.shape, left, right))

    def outcome_states(self):
        """[(probability, corrected PureState)] for every outcome, computed
        exactly in one pass from one precursor; each outcome state is
        validated."""
        norms, amps = _outcome_amplitudes((self,))
        return [(float(n ** 2), PureState(self.target.shape, v))
                for n, v in zip(norms, amps)]

    def outcome_state(self, m):
        """(probability, corrected PureState) for outcome m."""
        return self.outcome_states()[m]

    def verify(self):
        """Raise unless completeness, uniform outcomes, and unit fidelity hold."""
        d = self.n_outcomes
        comp = np.einsum("mij,mik->jk", self.alice_kraus.conj(), self.alice_kraus)
        if np.max(np.abs(comp - np.eye(comp.shape[0]))) > 1e-10:
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
    PureState's checks in raw form (finite, unit norm).
    """
    first = protocols[0]
    shape, cut, d = first.target.shape, first.cut, first.n_outcomes
    if any(p.target.shape != shape or p.cut != cut or p.n_outcomes != d
           for p in protocols):
        raise InvariantError("protocols must share one shape, cut and outcome count")
    left, right, dl, dr = _cut_views(shape, cut)
    post = np.stack([p.alice_kraus for p in protocols]) @ _precursor_matrix(d, dl, dr)
    # each outcome's Frobenius norm, summed as np.linalg.norm sums it (one
    # real and one imaginary dot product), so the bits match per-outcome calls
    flat = post.reshape(-1, 1, dl * dr)
    re, im = flat.real, flat.imag
    norms = np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)).reshape(-1)
    a, b = (np.stack([[c[side] for c in p.corrections] for p in protocols])
            for side in (0, 1))
    post = a @ (post / norms.reshape(-1, d, 1, 1)) @ np.swapaxes(b, -1, -2)
    amps = _from_cut_order(post.reshape(len(norms), -1), shape, left, right)
    if not np.isfinite(amps).all():
        raise InvariantError("entries must be finite")
    if not np.all(np.abs(np.linalg.norm(amps, axis=-1) - 1.0) <= ATOL):
        raise InvariantError("state vector is not normalized")
    return norms, amps


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
    cut is validated once and one stacked SVD serves all targets."""
    shape = targets[0].shape
    checked = _cut_permutation(shape, cut)
    left, right, dl, dr = _cut_views(shape, cut)
    if (sorted(left), sorted(right)) != checked:
        raise InvariantError("cut must list each party once")
    d = min(dl, dr)
    dims = shape.local_dims
    t = np.stack([psi.amplitudes for psi in targets]).reshape(-1, *dims)
    t = np.transpose(t, [0, *(1 + k for k in left + right)]).reshape(-1, dl, dr)
    u, s, vh = np.linalg.svd(t)
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
    gives everything.  With squared Schmidt coefficients lam_i = s_i^2
    over the d = min(dl, dr) levels, Alice's m-th Kraus operator is
    diag(sqrt(lam_{(i+m) mod d})) on the first d levels and 1/sqrt(d)
    above; completeness follows from sum_i lam_i = 1 and every outcome
    occurs with probability exactly 1/d.  The corrections for outcome m
    are U and V^T with their first d columns shifted cyclically by m
    (a column gather), which undoes the shift the outcome leaves.
    """
    return _build_conversions((target,), cut)[0]


# ---------------------------------------------------------------------------
# ensembles and LCCC synthesis


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Mixture of pure states: pairs (p_mu, psi_mu) over one shape."""

    probabilities: np.ndarray
    states: tuple

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if (p < 0).any() or abs(p.sum() - 1) > ATOL:
            raise InvariantError("ensemble probabilities must be a distribution")
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
    """Eigendecomposition of rho as an Ensemble, eigenvalues descending;
    eigenvalues at or below RANK_TOL are dropped.

    Degenerate eigenspaces are resolved by the package-wide deterministic
    disambiguation, so the output depends only on the input bits.
    """
    w, v = deterministic_eigh(rho.entries)
    order = np.argsort(-w, kind="stable")  # descending, ties keep their order
    w, v = w[order], v[:, order]
    keep = w > RANK_TOL
    w, v = w[keep], v[:, keep]
    states = tuple(PureState(rho.shape, v[:, i] / np.linalg.norm(v[:, i]))
                   for i in range(len(w)))
    return Ensemble(w / w.sum(), states)


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Ensemble for a bipartite target plus one conversion protocol per element."""

    ensemble: Ensemble
    protocols: tuple
    target: DensityMatrix

    def verify(self):
        recon = self.ensemble.mixture()
        if np.max(np.abs(recon.entries - self.target.entries)) > ATOL:
            raise InvariantError("ensemble does not reconstruct the target")
        for proto in self.protocols:
            proto.verify()


def build_synthesis_plan(rho):
    """Spectral ensemble of rho plus a conversion protocol per element."""
    if rho.shape.n_parties != 2:
        raise InvariantError("synthesis is defined for bipartite states")
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
    """
    if (not isinstance(n_samples, numbers.Integral) or isinstance(n_samples, bool)
            or not 1 <= n_samples <= np.iinfo(np.int64).max):
        raise InvariantError(f"sample count must be an integer in [1, 2^63), got {n_samples!r}")
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or seed < 0):
        raise InvariantError(f"seed must be a non-negative integer, got {seed!r}")
    _, amps = _outcome_amplitudes(plan.protocols)
    d = plan.protocols[0].n_outcomes
    probs = np.repeat(plan.ensemble.probabilities / d, d)
    counts = np.random.default_rng(seed).multinomial(n_samples, probs)
    emp = (amps.T * (counts / n_samples)) @ amps.conj()
    empirical = DensityMatrix(plan.target.shape, emp, symmetrize=True)
    return empirical, distance("trace", empirical, plan.target)


def lccc_synthesize_bipartite(rho, n_samples, seed):
    """Full pipeline: plan, simulate, report (plan, empirical, trace distance)."""
    plan = build_synthesis_plan(rho)
    empirical, td = simulate_synthesis(plan, n_samples, seed)
    return plan, empirical, td
