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
                     RANK_TOL, SystemShape, deterministic_eigh, distance,
                     max_entangled, schmidt_decompose)


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


def _to_cut_order(psi, left, right):
    dims = psi.shape.local_dims
    t = psi.amplitudes.reshape(dims)
    return np.transpose(t, left + right).reshape(-1)


def _from_cut_order(vec, shape, left, right):
    """Inverse of _to_cut_order; leading axes of vec are a batch."""
    dims = shape.local_dims
    perm = left + right
    batch = vec.shape[:-1]
    t = vec.reshape(*batch, *[dims[k] for k in perm])
    inv = [len(batch) + int(i) for i in np.argsort(perm)]
    return np.transpose(t, [*range(len(batch)), *inv]).reshape(*batch, -1)


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
        d = self.n_outcomes
        vec = np.zeros(dl * dr, dtype=complex)
        for i in range(d):
            vec[i * dr + i] = 1 / np.sqrt(d)
        return PureState(self.target.shape,
                         _from_cut_order(vec, self.target.shape, left, right))

    def outcome_states(self):
        """[(probability, corrected PureState)] for every outcome, computed
        exactly in one pass from one precursor; each outcome state is
        validated."""
        left, right, dl, dr = _cut_views(self.target.shape, self.cut)
        src = _to_cut_order(self.precursor(), left, right).reshape(dl, dr)
        post = self.alice_kraus @ src
        norms = np.array([np.linalg.norm(p) for p in post])
        a, b = (np.stack(c) for c in zip(*self.corrections))
        post = a @ (post / norms[:, None, None]) @ np.swapaxes(b, -1, -2)
        amps = _from_cut_order(post.reshape(len(post), -1), self.target.shape,
                               left, right)
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


def _shift_unitary(dim, d, m):
    """|i> -> |(i+m) mod d> on the first d levels, identity above."""
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(d):
        u[(i + m) % d, i] = 1.0
    for i in range(d, dim):
        u[i, i] = 1.0
    return u


def build_conversion(target, cut):
    """Protocol producing `target` from the maximally entangled state with
    probability one.

    With target squared Schmidt coefficients (lam_0, ..., lam_{d-1}) padded
    by zeros, Alice's m-th Kraus operator is diag(sqrt(lam_{(i+m) mod d}));
    completeness follows from sum_i lam_i = 1 and every outcome norm is
    exactly 1/d.  The corrections compose a modular shift with the change
    from the computational to the Schmidt bases on each side.
    """
    left, right, dl, dr = _cut_views(target.shape, cut)
    d = min(dl, dr)
    sf = schmidt_decompose(target, cut)
    if sf.rank() > d:
        raise InvariantError("target Schmidt rank exceeds the cut dimension")
    lam = np.zeros(d)
    lam[:len(sf.coefficients)] = sf.coefficients ** 2
    lam = lam / lam.sum()

    # full unitaries whose first columns are the Schmidt bases
    t = _to_cut_order(target, left, right).reshape(dl, dr)
    u, s, vh = np.linalg.svd(t)
    ua = u                      # dl x dl
    ub = vh.T                   # dr x dr, columns are the right Schmidt vectors

    kraus = np.zeros((d, dl, dl), dtype=complex)
    corrections = []
    for m in range(d):
        diag = np.full(dl, 1 / np.sqrt(d))
        diag[:d] = np.sqrt(lam[(np.arange(d) + m) % d])
        kraus[m] = np.diag(diag)
        corrections.append((ua @ _shift_unitary(dl, d, m),
                            ub @ _shift_unitary(dr, d, m)))
    return ConversionProtocol(target=target, cut=(left, right),
                              alice_kraus=kraus,
                              corrections=tuple(corrections))


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
    protocols = tuple(build_conversion(psi, cut) for psi in ens.states)
    return SynthesisPlan(ensemble=ens, protocols=protocols, target=rho)


def simulate_synthesis(plan, n_samples, seed):
    """Monte-Carlo run of the synthesis protocol.

    Every shot draws the shared random variable mu ~ p_mu and one of
    Alice's k_mu equiprobable measurement outcomes, so the shot counts per
    (mu, outcome) pair are one multinomial draw of n_samples over the
    probabilities p_mu / k_mu from ``default_rng(seed)``.  The empirical
    state is the count-weighted mixture of the corrected outcome states;
    its cost grows with the number of outcomes, not with n_samples.
    Returns the empirical state and its trace distance to the target.
    """
    if (not isinstance(n_samples, numbers.Integral) or isinstance(n_samples, bool)
            or not 1 <= n_samples <= np.iinfo(np.int64).max):
        raise InvariantError(f"sample count must be an integer in [1, 2^63), got {n_samples!r}")
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or seed < 0):
        raise InvariantError(f"seed must be a non-negative integer, got {seed!r}")
    amps = np.array([state.amplitudes for proto in plan.protocols
                     for _, state in proto.outcome_states()])
    probs = np.concatenate([np.full(proto.n_outcomes, p / proto.n_outcomes)
                            for p, proto in zip(plan.ensemble.probabilities,
                                                plan.protocols)])
    counts = np.random.default_rng(seed).multinomial(n_samples, probs)
    emp = (amps.T * (counts / n_samples)) @ amps.conj()
    empirical = DensityMatrix(plan.target.shape, emp, symmetrize=True)
    return empirical, distance("trace", empirical, plan.target)


def lccc_synthesize_bipartite(rho, n_samples, seed):
    """Full pipeline: plan, simulate, report (plan, empirical, trace distance)."""
    plan = build_synthesis_plan(rho)
    empirical, td = simulate_synthesis(plan, n_samples, seed)
    return plan, empirical, td
