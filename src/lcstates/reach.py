"""LC membership engine and LCCC obstruction certificates.

The membership question: given a target density matrix over n parties, is
there a pure precursor of the same shape and one noise channel per party
whose product maps the precursor onto the target?  We search numerically by
alternating two moves on the squared Hilbert-Schmidt objective
||Lambda(|Phi><Phi|) - rho||^2:

  * precursor move - for fixed channels the overlap term is maximized by
    the top eigenvector of the adjoint product channel applied to rho;
  * channel move - per-party gradient descent over Stinespring isometry
    coordinates with a polar-decomposition retraction, so every iterate is
    a valid channel.

A finite search only gathers evidence: results report residuals and never
claim impossibility.  The structural certificate lives in
:func:`lccc_obstruction_check`, which recognizes mixtures of one W-class
and one GHZ-class state (not producible even with classical communication)
and the universally-producible bipartite case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (COMPLETENESS_ATOL, LocalChannel, _apply_local,
                       _apply_product_channel_matrix,
                       apply_adjoint_product_channel, haar_isometry,
                       identity_channel, liouville)
from .locc import SynthesisPlan, build_synthesis_plan, spectral_ensemble
from .slocc import (GHZ_CLASS, TANGLE_TOL, W_CLASS, classify_three_qubit,
                    hyperdeterminant)
from .states import (DensityMatrix, InvariantError, PureState, RANK_TOL,
                     deterministic_eigh, distance)

NOT_LCCC = "NotLCCC"
LCCC_BIPARTITE = "LCCCBipartite"
UNKNOWN = "Unknown"


@dataclass(frozen=True, eq=False)
class LCConfiguration:
    """Search point: a pure precursor plus one local channel per party.

    The precursor lives in the same party structure as the target; the
    membership question is posed with no extra system dimensions.
    """

    precursor: PureState
    channels: tuple

    def __post_init__(self):
        dims = self.precursor.shape.local_dims
        if len(self.channels) != len(dims):
            raise InvariantError("need one channel per party")
        for k, (c, d) in enumerate(zip(self.channels, dims)):
            if c.dim != d:
                raise InvariantError(f"channel {k} dimension mismatch")

    def output(self):
        """The density matrix this configuration produces."""
        amps = self.precursor.amplitudes
        sigma = np.outer(amps, amps.conj())
        dims = self.precursor.shape.local_dims
        sups = [liouville(c.kraus) for c in self.channels]
        out = _apply_product_channel_matrix(sups, sigma, dims)
        return DensityMatrix(self.precursor.shape, out, symmetrize=True)


@dataclass(frozen=True, eq=False)
class SearchResult:
    best: LCConfiguration
    hs_distance: float
    trace_distance: float
    restarts_run: int
    master_seed: int
    # (seed, final objective, len(trace)) per restart; the trace holds the
    # initial objective plus n + 1 entries per iteration (precursor move,
    # then one per party), so len(trace) = 1 + iters * (n + 1)
    per_restart_log: tuple


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of LCCC analysis for a target density matrix."""

    verdict: str
    decomposition: tuple = None    # (p, psi_a, psi_b) for NotLCCC
    classes: tuple = None          # pair of SloccClass labels for NotLCCC
    plan: SynthesisPlan = None     # for LCCCBipartite
    reason: str = None             # for Unknown


# ---------------------------------------------------------------------------
# variational search


def precursor_optimal_for_channels(channels, target):
    """Best pure precursor for fixed channels.

    Maximizes Tr(rho Lambda(|Phi><Phi|)) = <Phi| Lambda^dag(rho) |Phi>, so
    the answer is the top eigenvector of the adjoint-channel image of the
    target (deterministic tie-break in degenerate cases).
    """
    dims = target.shape.local_dims
    for k, c in enumerate(channels):
        if c.dim != dims[k]:
            raise InvariantError(f"channel {k} dimension mismatch")
    h = apply_adjoint_product_channel(channels, target.entries, dims)
    return _top_eigenstate(target.shape, h)


def _top_eigenstate(shape, h):
    """Normalized top eigenvector of the Hermitian part of h."""
    h = (h + h.conj().T) / 2
    _, v = deterministic_eigh(h)
    top = v[:, -1]
    return PureState(shape, top / np.linalg.norm(top))


def _objective(x, rho_mat):
    return float(np.linalg.norm(x - rho_mat) ** 2)


def _party_gradient(d_mat, y, kraus, dims, k):
    """Gradient of the objective wrt the Kraus stack of party k.

    With Y the other parties' channels applied to sigma, X the full output
    and D = X - rho:  G_m = 2 Tr_{others}[ D K~_m Y ], K~_m the embedding of
    K_m on party k.  Derived from d||X - rho||^2 = 2 Re Tr[D dX].  The
    partial trace is taken first: T[a,c,c',b] = Tr_{others} over
    D[(.a.),(.c.)] Y[(.c'.),(.b.)], then G_m[a,b] = 2 sum K_m[c,c'] T[a,c,c',b].
    """
    d = dims[k]
    shape = (math.prod(dims[:k]), d, math.prod(dims[k + 1:]))
    shape = shape + shape
    # D axes (i, a, j, p, c, q) against Y axes (p, c', q, i, b, j)
    t = np.tensordot(d_mat.reshape(shape), y.reshape(shape),
                     axes=([0, 2, 3, 5], [3, 5, 0, 2]))
    return 2 * np.einsum("acdb,mcd->mab", t, kraus)


def _polar_retract(v):
    """Nearest isometry in Frobenius norm: U W^dag from the thin SVD.

    The result is checked like a LocalChannel's Kraus stack: V^dag V = I
    to COMPLETENESS_ATOL, written so that NaN fails too.
    """
    u, _, wh = np.linalg.svd(v, full_matrices=False)
    iso = u @ wh
    resid = np.max(np.abs(iso.conj().T @ iso - np.eye(iso.shape[1])))
    if not resid <= COMPLETENESS_ATOL:
        raise InvariantError("Kraus operators do not sum to the identity")
    return iso


def _random_configuration(target, env_dims, rng):
    dims = target.shape.local_dims
    channels = tuple(
        LocalChannel(d, haar_isometry(d * e, d, rng).reshape(e, d, d))
        for d, e in zip(dims, env_dims))
    z = rng.standard_normal(target.shape.total_dim) \
        + 1j * rng.standard_normal(target.shape.total_dim)
    phi = PureState(target.shape, z / np.linalg.norm(z))
    return LCConfiguration(phi, channels)


def _identity_configuration(target, env_dims):
    dims = target.shape.local_dims
    channels = tuple(identity_channel(d, e) for d, e in zip(dims, env_dims))
    w, v = deterministic_eigh(target.entries)
    phi = PureState(target.shape, v[:, -1] / np.linalg.norm(v[:, -1]))
    return LCConfiguration(phi, channels)


INITIAL_STEP = 0.1
STEP_FLOOR = 1e-8
STEP_GROWTH = 1.3
STEP_CAP = 10.0


def _run_restart(target, config, env_dims, max_iters, tol):
    """Alternating minimization from one starting configuration.

    Returns (config, objective trace).  The recorded objective sequence is
    non-increasing: a precursor move is kept only if it does not increase
    the objective, and channel moves halve the step until non-increase
    (step underflow below 1e-8 ends the restart).

    The loop works on raw Kraus stacks and their Liouville matrices.  For
    each party k the other parties' part Y_k of the output is computed
    once; the gradient and every trial step reuse it, so a trial costs one
    retraction and one single-party kernel call.
    """
    dims = target.shape.local_dims
    rho_mat = target.entries
    kraus = [c.kraus for c in config.channels]
    sups = [liouville(kr) for kr in kraus]
    phi = config.precursor
    sigma = np.outer(phi.amplitudes, phi.amplitudes.conj())
    obj = _objective(_apply_product_channel_matrix(sups, sigma, dims), rho_mat)
    trace = [obj]
    step = INITIAL_STEP
    for _ in range(max_iters):
        prev = obj

        # precursor move (guarded: the eigenvector maximizes only the
        # overlap term, so accept it only when the full objective drops)
        h = _apply_product_channel_matrix([s.conj().T for s in sups],
                                          rho_mat, dims)
        cand = _top_eigenstate(target.shape, h)
        cand_sigma = np.outer(cand.amplitudes, cand.amplitudes.conj())
        cand_obj = _objective(
            _apply_product_channel_matrix(sups, cand_sigma, dims), rho_mat)
        if cand_obj <= obj:
            phi, sigma, obj = cand, cand_sigma, cand_obj
        trace.append(obj)

        # channel moves, one party at a time
        dead = False
        for k, d in enumerate(dims):
            y = _apply_product_channel_matrix(sups, sigma, dims, skip=k)
            x = _apply_local(y, sups[k], dims, k)
            g = _party_gradient(x - rho_mat, y, kraus[k], dims, k).reshape(-1, d)
            v0 = kraus[k].reshape(-1, d)
            while True:
                cand_k = _polar_retract(v0 - step * g).reshape(kraus[k].shape)
                cand_s = liouville(cand_k)
                t_obj = _objective(_apply_local(y, cand_s, dims, k), rho_mat)
                if t_obj <= obj + 1e-15:
                    kraus[k], sups[k], obj = cand_k, cand_s, min(obj, t_obj)
                    # accepted: let the step recover so progress stays fast
                    step = min(step * STEP_GROWTH, STEP_CAP)
                    break
                step /= 2
                if step < STEP_FLOOR:
                    dead = True
                    break
            trace.append(obj)
            if dead:
                break
        if dead:
            break
        if prev - obj < tol:
            break
    channels = tuple(LocalChannel(d, kr) for d, kr in zip(dims, kraus))
    return LCConfiguration(phi, channels), trace


def lc_distance_search(target, env_dims=None, restarts=8, max_iters=2000,
                       tol=1e-14, master_seed=0):
    """Multi-restart variational search for an LC representation of target.

    Restart 0 always starts from the identity-like configuration (precursor
    = top eigenvector of the target, identity channels padded to env_dims),
    so pure targets converge immediately.  For mixed targets that start is
    stationary: the output is quadratic in each Kraus operator, so the
    zero-padded ones get zero gradient, and restart 0 typically stops after
    one iteration at the objective of the top-eigenvector precursor.
    Remaining restarts draw seeded Haar-random configurations; per-restart
    seeds derive from the master seed, making the result
    schedule-independent.  The best restart wins, ties broken by lowest
    index.
    """
    dims = target.shape.local_dims
    if env_dims is None:
        env_dims = tuple(d * d for d in dims)
    env_dims = tuple(int(e) for e in env_dims)
    if len(env_dims) != len(dims):
        raise InvariantError("need one environment dimension per party")
    for d, e in zip(dims, env_dims):
        if not 1 <= e <= d * d:
            raise InvariantError("environment dimensions must satisfy 1 <= e <= d^2")
    if restarts < 1:
        raise InvariantError("need at least one restart")

    log = []
    best = None
    best_obj = np.inf
    for r in range(restarts):
        seed = int(np.random.SeedSequence([int(master_seed), r]).generate_state(1)[0])
        if r == 0:
            config = _identity_configuration(target, env_dims)
        else:
            config = _random_configuration(target, env_dims,
                                           np.random.default_rng(seed))
        final, trace = _run_restart(target, config, env_dims, max_iters, tol)
        log.append((seed, trace[-1], len(trace)))
        if trace[-1] < best_obj:
            best, best_obj = final, trace[-1]

    out = best.output()
    return SearchResult(best=best,
                        hs_distance=distance("hilbert_schmidt", out, target),
                        trace_distance=distance("trace", out, target),
                        restarts_run=restarts,
                        master_seed=int(master_seed),
                        per_restart_log=tuple(log))


# ---------------------------------------------------------------------------
# structural LCCC certificate


DEGENERACY_BAND = 1e-9


def _try_basis(rho, p, psi_a, psi_b):
    """Check one rank-2 decomposition for the W/GHZ obstruction pattern."""
    try:
        ca = classify_three_qubit(psi_a)
        cb = classify_three_qubit(psi_b)
    except InvariantError:
        return None
    if {ca.label, cb.label} != {W_CLASS, GHZ_CLASS}:
        return None
    return Certificate(verdict=NOT_LCCC,
                       decomposition=(p, psi_a, psi_b),
                       classes=(ca, cb))


def lccc_obstruction_check(rho):
    """Decide what is known about LCCC membership of rho.

    Bipartite targets are always producible (synthesis plan attached).
    A rank-2 three-qubit target whose spectral decomposition mixes one
    W-class and one GHZ-class state cannot be produced even with classical
    communication.  For a degenerate (p = 1/2) spectrum every orthonormal
    basis of the eigenspace is a decomposition; the W-class candidates are
    the zero-tangle directions, the exact roots of the binary quartic
    Hdet(x va + y vb), and each is tried with its orthogonal complement, so
    the verdict does not depend on a local-unitary frame.  Everything else
    is Unknown - never an error.
    """
    if rho.shape.n_parties == 2:
        return Certificate(verdict=LCCC_BIPARTITE, plan=build_synthesis_plan(rho))
    if rho.shape.local_dims != (2, 2, 2):
        return Certificate(verdict=UNKNOWN, reason="no implemented criterion")
    ens = spectral_ensemble(rho)
    if len(ens.states) != 2:
        return Certificate(verdict=UNKNOWN, reason="no implemented criterion")
    p = float(ens.probabilities[0])
    psi_a, psi_b = ens.states

    if abs(p - 0.5) > DEGENERACY_BAND:
        cert = _try_basis(rho, p, psi_a, psi_b)
        if cert is not None:
            return cert
        return Certificate(verdict=UNKNOWN, reason="argument inapplicable")

    # degenerate spectrum: every orthonormal basis of the eigenspace is a
    # decomposition.  Hdet is homogeneous of degree 4, so f(t) = Hdet(va + t vb)
    # is a quartic whose coefficients are the DFT of its values at the fifth
    # roots of unity, over 5.  Each root t gives u1 = va + t vb and its in-span
    # complement u2 = -conj(t) va + vb; a vanishing Hdet(vb) is the root at
    # infinity, tried as u1 = vb rather than as a huge finite root.
    va, vb = psi_a.amplitudes, psi_b.amplitudes
    omega = np.exp(2j * np.pi * np.arange(5) / 5)
    coeffs = np.fft.fft([hyperdeterminant(va + w * vb) for w in omega]) / 5
    pairs = []
    if 4 * abs(coeffs[4]) <= TANGLE_TOL:
        pairs, coeffs = [(vb, va)], coeffs[:4]
    pairs += [(va + t * vb, -np.conj(t) * va + vb)
              for t in np.roots(coeffs[::-1])]
    for u1, u2 in pairs:
        cert = _try_basis(rho, 0.5,
                          PureState(rho.shape, u1 / np.linalg.norm(u1)),
                          PureState(rho.shape, u2 / np.linalg.norm(u2)))
        if cert is not None:
            return cert
    return Certificate(verdict=UNKNOWN, reason="argument inapplicable")
