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

from dataclasses import dataclass

import numpy as np

from .channels import (COMPLETENESS_ATOL, LocalChannel, _apply_local,
                       _apply_product_channel_matrix, _local_view, _permute,
                       apply_adjoint_product_channel, haar_isometry,
                       identity_channel, liouville)
from .locc import SynthesisPlan, build_synthesis_plan, spectral_ensemble
from .slocc import (GHZ_CLASS, TANGLE_TOL, W_CLASS, classify_three_qubit,
                    hyperdeterminant)
from .states import (ATOL, DEGENERACY_TOL, DensityMatrix, InvariantError,
                     PureState, deterministic_eigh, distance)

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
    # one RestartDiagnostics per restart, in the same order
    diagnostics: tuple


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of LCCC analysis for a target density matrix."""

    verdict: str
    # (q, heavier state, lighter state) for NotLCCC; always reconstructs
    # rho to RECONSTRUCTION_ATOL
    decomposition: tuple = None
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
    return PureState(target.shape, _top_eigenvectors(h[None])[0])


def _top_eigenvectors(h):
    """Normalized top eigenvectors of the Hermitian parts of a (B, D, D) stack.

    One stacked eigh; where the top gap exceeds DEGENERACY_TOL, v[..., -1]
    with its largest-magnitude entry made real positive is exactly what
    deterministic_eigh returns, otherwise that element goes through
    deterministic_eigh for the same tie-break.
    The candidates get PureState's checks in raw form (finite, unit norm).
    """
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2
    w, v = np.linalg.eigh(h)
    top = v[..., -1]
    peak = np.take_along_axis(top, np.argmax(np.abs(top), axis=-1)[:, None], -1)
    top = top / (peak / np.abs(peak))
    gap = w[:, -1] - w[:, -2] if w.shape[-1] > 1 else np.inf   # D = 1: no tie
    for b in np.flatnonzero(~(gap > DEGENERACY_TOL)):
        top[b] = deterministic_eigh(h[b])[1][:, -1]
    top = top / np.linalg.norm(top, axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise InvariantError("entries must be finite")
    if not np.all(np.abs(np.linalg.norm(top, axis=-1) - 1.0) <= ATOL):
        raise InvariantError("state vector is not normalized")
    return top


def _objective(x, rho_mat):
    """Squared Frobenius distance ||x - rho||^2, one value per batch element."""
    r = (x - rho_mat).reshape(*x.shape[:-2], -1)
    return (r.real ** 2 + r.imag ** 2).sum(axis=-1)


def _party_gradient(d_mat, y, kraus, dims, k):
    """Gradient of the objective wrt the Kraus stack of party k.

    With Y the other parties' channels applied to sigma, X the full output
    and D = X - rho:  G_m = 2 Tr_{others}[ D K~_m Y ], K~_m the embedding of
    K_m on party k.  Derived from d||X - rho||^2 = 2 Re Tr[D dX].  The
    partial trace is taken first, as one matmul of D viewed as
    ((a, c), (i, j, p, q)) with Y viewed as ((i, j, p, q), (c', b)):
    T[a,c,c',b] = sum D[(i a j),(p c q)] Y[(p c' q),(i b j)]; then
    G_m[a,b] = 2 sum K_m[c,c'] T[a,c,c',b] is one matmul with the Kraus
    stack.  All arguments may carry a leading batch axis.
    """
    dv = _local_view(d_mat, dims, k)
    yv = _local_view(y, dims, k)
    d = dims[k]
    t = (_permute(dv, (1, 4, 0, 2, 3, 5)).reshape(*dv.shape[:-6], d * d, -1)
         @ _permute(yv, (3, 5, 0, 2, 1, 4)).reshape(*yv.shape[:-6], -1, d * d))
    t = _permute(t.reshape(*t.shape[:-2], d, d, d, d), (1, 2, 0, 3))
    g = kraus.reshape(*kraus.shape[:-2], d * d) @ t.reshape(*t.shape[:-4], d * d, d * d)
    return 2 * g.reshape(kraus.shape)


def _polar_retract(v):
    """Nearest isometry in Frobenius norm: U W^dag from the thin SVD.

    Leading axes are a batch.  Each result is checked like a LocalChannel's
    Kraus stack: V^dag V = I to COMPLETENESS_ATOL, written so that NaN
    fails too.
    """
    u, _, wh = np.linalg.svd(v, full_matrices=False)
    iso = u @ wh
    gram = np.swapaxes(iso.conj(), -1, -2) @ iso
    resid = np.abs(gram - np.eye(iso.shape[-1])).max(axis=(-2, -1))
    if not np.all(resid <= COMPLETENESS_ATOL):
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

# caps on one search's size: a restart at (3,3,3) with env 9 holds about
# 0.33 MB of stacked arrays, so RESTART_LIMIT restarts stay near 85 MB
RESTART_LIMIT = 256
ITERATION_LIMIT = 10 ** 6

CONVERGED = "converged"
STEP_UNDERFLOW = "step_underflow"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class RestartDiagnostics:
    """How one restart of the search ran.

    iterations: iterations started (each begins with the precursor move);
    stop_reason: CONVERGED (an iteration lowered the objective by less
    than tol), STEP_UNDERFLOW (a channel move's step fell below STEP_FLOOR)
    or MAX_ITERS; accepted_steps / rejected_steps: channel-move trials
    that were kept / that halved the step.
    """

    iterations: int
    stop_reason: str
    accepted_steps: int
    rejected_steps: int


def _run_lock_step(target, configs, max_iters, tol):
    """Alternating minimization of every starting configuration, in lock step.

    All restarts advance together through stacked raw arrays: one Kraus
    stack (B, e, d, d) and Liouville matrix (B, d^2, d^2) per party, the
    precursor states sigma (B, D, D), and obj and step of shape (B,); each
    kernel call serves every live restart at once.  Each restart still
    follows its own serial algorithm, with its own step size:

      * precursor move, kept only if it does not increase the objective;
      * per party k, Y_k (the other parties applied to sigma) is computed
        once, then the gradient; every restart still pending tries a step,
        an accepted one grows its step by STEP_GROWTH (capped at
        STEP_CAP), a rejected one halves it, and below STEP_FLOOR the
        restart dies: it records this party's objective and skips the rest;
      * a restart leaves the live set on step underflow, when an iteration
        lowers its objective by less than tol, or after max_iters.

    The recorded objective sequence of each restart is non-increasing, and
    element b's arithmetic does not depend on the other elements, so a
    restart's result does not depend on how restarts are batched.

    Returns (kraus, phis, traces, diagnostics): the final Kraus stacks per
    party, the final precursor amplitudes (B, D), each restart's objective
    trace and its RestartDiagnostics.
    """
    dims = target.shape.local_dims
    rho_mat = target.entries
    kraus = [np.stack([c.channels[k].kraus for c in configs])
             for k in range(len(dims))]
    sups = [liouville(kr) for kr in kraus]
    phis = np.stack([c.precursor.amplitudes for c in configs])
    sigma = phis[:, :, None] * phis[:, None, :].conj()
    obj = _objective(_apply_product_channel_matrix(sups, sigma, dims), rho_mat)
    n = len(configs)
    traces = [[o] for o in obj.tolist()]
    step = np.full(n, INITIAL_STEP)
    iters, accepted, rejected = (np.zeros(n, dtype=int) for _ in range(3))
    reasons = [MAX_ITERS] * n
    live = np.arange(n)
    for _ in range(max_iters):
        if not live.size:
            break
        iters[live] += 1
        prev = obj.copy()

        # precursor move (guarded: the eigenvector maximizes only the
        # overlap term, so accept it only when the full objective drops)
        own = [s[live] for s in sups]
        h = _apply_product_channel_matrix(
            [np.swapaxes(s.conj(), -1, -2) for s in own], rho_mat, dims)
        cand = _top_eigenvectors(h)
        cand_sigma = cand[:, :, None] * cand[:, None, :].conj()
        cand_obj = _objective(_apply_product_channel_matrix(own, cand_sigma, dims),
                              rho_mat)
        keep = cand_obj <= obj[live]
        rows = live[keep]
        phis[rows], sigma[rows], obj[rows] = cand[keep], cand_sigma[keep], cand_obj[keep]
        for r, o in zip(live, obj[live].tolist()):
            traces[r].append(o)

        # channel moves, one party at a time
        act = live
        for k, d in enumerate(dims):
            if not act.size:
                break
            y = _apply_product_channel_matrix([s[act] for s in sups], sigma[act],
                                              dims, skip=k)
            x = _apply_local(y, sups[k][act], dims, k)
            own_k = kraus[k][act]
            v0 = own_k.reshape(len(act), -1, d)
            g = _party_gradient(x - rho_mat, y, own_k, dims, k).reshape(v0.shape)
            pend = np.arange(len(act))   # positions in act still trying
            while pend.size:
                rows = act[pend]
                cand_k = _polar_retract(v0[pend] - step[rows, None, None] * g[pend])
                cand_k = cand_k.reshape(-1, *kraus[k].shape[1:])
                cand_s = liouville(cand_k)
                t_obj = _objective(_apply_local(y[pend], cand_s, dims, k), rho_mat)
                ok = t_obj <= obj[rows] + 1e-15
                # accepted: let the step recover so progress stays fast
                up = rows[ok]
                kraus[k][up], sups[k][up] = cand_k[ok], cand_s[ok]
                obj[up] = np.minimum(obj[up], t_obj[ok])
                step[up] = np.minimum(step[up] * STEP_GROWTH, STEP_CAP)
                accepted[up] += 1
                down = rows[~ok]
                step[down] /= 2
                rejected[down] += 1
                pend = pend[~ok][step[down] >= STEP_FLOOR]
            for r, o in zip(act, obj[act].tolist()):
                traces[r].append(o)
            # a step only drops below STEP_FLOOR by the halving that kills
            dead = step[act] < STEP_FLOOR
            for r in act[dead]:
                reasons[r] = STEP_UNDERFLOW
            act = act[~dead]
        done = prev[act] - obj[act] < tol
        for r in act[done]:
            reasons[r] = CONVERGED
        live = act[~done]
    diags = tuple(RestartDiagnostics(int(i), why, int(a), int(j))
                  for i, why, a, j in zip(iters, reasons, accepted, rejected))
    return kraus, phis, traces, diags


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
    seeds derive from the master seed.  All restarts then run in lock step
    on one batch axis (`_run_lock_step`); a restart's arithmetic does not
    depend on the others, so its result is the same however many restarts
    run beside it.  The best restart wins, ties broken by lowest index.
    Per restart, `per_restart_log` holds (seed, final objective, trace
    length) and `diagnostics` its RestartDiagnostics.
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
    if not 1 <= restarts <= RESTART_LIMIT:
        raise InvariantError(f"restarts must lie in [1, {RESTART_LIMIT}]")
    if not 0 <= max_iters <= ITERATION_LIMIT:
        raise InvariantError(f"max_iters must lie in [0, {ITERATION_LIMIT}]")

    seeds = [int(np.random.SeedSequence([int(master_seed), r]).generate_state(1)[0])
             for r in range(restarts)]
    configs = [_identity_configuration(target, env_dims)]
    configs += [_random_configuration(target, env_dims, np.random.default_rng(s))
                for s in seeds[1:]]
    kraus, phis, traces, diags = _run_lock_step(target, configs, max_iters, tol)
    finals = [trace[-1] for trace in traces]
    b = int(np.argmin(finals))
    best = LCConfiguration(
        PureState(target.shape, phis[b]),
        tuple(LocalChannel(d, kr[b]) for d, kr in zip(dims, kraus)))
    out = best.output()
    return SearchResult(best=best,
                        hs_distance=distance("hilbert_schmidt", out, target),
                        trace_distance=distance("trace", out, target),
                        restarts_run=restarts,
                        master_seed=int(master_seed),
                        per_restart_log=tuple(
                            (s, f, len(t)) for s, f, t in zip(seeds, finals, traces)),
                        diagnostics=diags)


# ---------------------------------------------------------------------------
# structural LCCC certificate


RECONSTRUCTION_ATOL = 1e-9


def _try_basis(q, psi_a, psi_b):
    """Check one rank-2 decomposition for the W/GHZ obstruction pattern."""
    try:
        ca = classify_three_qubit(psi_a)
        cb = classify_three_qubit(psi_b)
    except InvariantError:
        return None
    if {ca.label, cb.label} != {W_CLASS, GHZ_CLASS}:
        return None
    return Certificate(verdict=NOT_LCCC,
                       decomposition=(q, psi_a, psi_b),
                       classes=(ca, cb))


def _zero_tangle_pairs(va, vb):
    """Orthonormal pairs (u1, u2) of span{va, vb} with Hdet(u1) = 0.

    Hdet is homogeneous of degree 4, so f(t) = Hdet(va + t vb) is a quartic
    whose coefficients are the DFT of its values at the fifth roots of
    unity, over 5.  Each root t gives u1 = va + t vb and its in-span
    complement u2 = -conj(t) va + vb; a vanishing Hdet(vb) is the root at
    infinity, returned as u1 = vb rather than as a huge finite root.
    """
    omega = np.exp(2j * np.pi * np.arange(5) / 5)
    coeffs = np.fft.fft([hyperdeterminant(va + w * vb) for w in omega]) / 5
    pairs = []
    if 4 * abs(coeffs[4]) <= TANGLE_TOL:
        pairs, coeffs = [(vb, va)], coeffs[:4]
    pairs += [(va + t * vb, -np.conj(t) * va + vb)
              for t in np.roots(coeffs[::-1])]
    return [(u1 / np.linalg.norm(u1), u2 / np.linalg.norm(u2)) for u1, u2 in pairs]


def _reconstruction_error(rho, p, a, b):
    recon = p * np.outer(a, a.conj()) + (1 - p) * np.outer(b, b.conj())
    return np.max(np.abs(recon - rho.entries))


def lccc_obstruction_check(rho):
    """Decide what is known about LCCC membership of rho.

    Bipartite targets are always producible (synthesis plan attached).
    A rank-2 three-qubit target that mixes one W-class and one GHZ-class
    state cannot be produced even with classical communication.  Each
    zero-tangle direction u1 of the support (a root of the binary quartic
    Hdet(x va + y vb)) is paired with its orthogonal complement u2 in the
    support, weighted q = <u1|rho|u1>, put heavier state first, and kept
    only if q|u1><u1| + (1-q)|u2><u2| reconstructs rho to
    RECONSTRUCTION_ATOL: off p = 1/2 only the eigenbasis does, at p = 1/2
    every orthonormal pair does.  The kept pairs are tried in order of
    increasing reconstruction error, so the certificate carries the pair
    that fits rho best.  The support stays well conditioned where
    the eigenvectors do not (p near 1/2), so the verdict does not depend on
    a local-unitary frame.  Everything else is Unknown - never an error.
    """
    if rho.shape.n_parties == 2:
        return Certificate(verdict=LCCC_BIPARTITE, plan=build_synthesis_plan(rho))
    if rho.shape.local_dims != (2, 2, 2):
        return Certificate(verdict=UNKNOWN, reason="no implemented criterion")
    ens = spectral_ensemble(rho)
    if len(ens.states) != 2:
        return Certificate(verdict=UNKNOWN, reason="no implemented criterion")
    va, vb = (psi.amplitudes for psi in ens.states)
    candidates = []
    for u1, u2 in _zero_tangle_pairs(va, vb):
        q = float(np.vdot(u1, rho.entries @ u1).real)
        if q < 0.5:
            q, u1, u2 = 1 - q, u2, u1
        err = _reconstruction_error(rho, q, u1, u2)
        if err <= RECONSTRUCTION_ATOL:
            candidates.append((err, q, u1, u2))
    for _, q, u1, u2 in sorted(candidates, key=lambda c: c[0]):
        cert = _try_basis(q, PureState(rho.shape, u1), PureState(rho.shape, u2))
        if cert is not None:
            return cert
    return Certificate(verdict=UNKNOWN, reason="argument inapplicable")
