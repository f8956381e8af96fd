"""LC membership engine and LCCC obstruction certificates.

The membership question: given a target density matrix over n parties, is
there a pure precursor of the same shape and one noise channel per party
whose product maps the precursor onto the target?  We search numerically by
alternating two moves on the squared Hilbert-Schmidt objective
||Lambda(|Phi><Phi|) - rho||^2:

  * precursor move - a gradient step on the unit sphere.  The output X is
    quadratic in the precursor Phi, so along Phi(t) = (Phi - t g) /
    ||Phi - t g|| it is (X - t A1 + t^2 A2) / ||Phi - t g||^2, with A1 and
    A2 the channel images of g Phi^H + Phi g^H and g g^H: every trial step
    is scored from one 4 x 4 Gram matrix (`_line_objective`), with no
    kernel call and no eigensolve;
  * channel move - per-party gradient descent over Stinespring isometry
    coordinates with a polar-decomposition retraction, so every iterate is
    a valid channel (`_polar_retract`: a d x d eigenproblem per trial, an
    SVD where that loses digits).  A party's move is one trial round: the
    step and its half are scored at once, the first that does not raise
    the objective is taken, and a move that takes neither leaves the
    channel as it was.  The output is linear in party k's
    Liouville matrix S: X = S T in the column view T of Y_k (the other
    parties' channels applied to the precursor).  So party k's objective,
    its gradient and every trial step come from the Gram pair G = T T^H
    and C = R T^H (R the same view of rho), two d^2 x d^2 matrices: a
    trial step does no D x D work.

The search keeps rho, the output X and every partial output Y_k as
party-paired vectors (`channels._to_pairs`), the layout the channel kernel
works in: a channel move does no D x D round trip.  The kernel applies a
party's channel to the leading pair axis and rotates that axis to the
back (`channels._apply_leading`), so a product of all parties ends in the
original layout without a copy.  Per iteration the channel moves make
2n - 3 transposing copies: one rotation that applies nothing for each
Y_k but the last, and one column view of Y_k for each middle party (3 at
three parties, 5 at four).  The precursor states Phi Phi^H are not
kept: each iteration's channel moves pair them from the working Phi
once.  The precursor move leaves the layout once, to multiply the
adjoint image Lambda^dag(X - rho) with Phi, and solves no eigenproblem;
the only ones the loop solves are the channel trials' d x d ones, and the
starts' (`_starts`).

A finite search only gathers evidence: results report residuals and never
claim impossibility.  The structural certificate lives in
:func:`lccc_obstruction_check`, which recognizes mixtures of one W-class
and one GHZ-class state (not producible even with classical communication)
and the universally-producible bipartite case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (COMPLETENESS_ATOL, LocalChannel, _apply_leading,
                       _apply_product_channel_matrix, _check_channels,
                       _column_view, _completeness_residual, _from_pairs,
                       _leading_view, _rotate, _to_pairs,
                       apply_adjoint_product_channel, apply_product_channel,
                       haar_isometry, liouville)
from .locc import SynthesisPlan, build_synthesis_plan, spectral_ensemble
from .slocc import (GHZ_CLASS, TANGLE_TOL, W_CLASS, classify_three_qubit,
                    hyperdeterminant)
from .states import (DensityMatrix, InvariantError, PureState,
                     UnsupportedError, _check_int, _check_real, _check_type,
                     _row_norms, _top_eigenvector, distance)

NOT_LCCC = "NotLCCC"
LCCC_BIPARTITE = "LCCCBipartite"
UNKNOWN = "Unknown"


@dataclass(frozen=True, eq=False)
class LCConfiguration:
    """Search point: a pure precursor plus one local channel per party.

    The precursor lives in the same party structure as the target; the
    membership question is posed with no extra system dimensions.  The
    precursor must be a PureState (`_check_type`), checked before the
    channels.
    """

    precursor: PureState
    channels: tuple

    def __post_init__(self):
        _check_type("precursor", self.precursor, PureState)
        _check_channels(self.channels, self.precursor.shape.local_dims)

    def output(self):
        """The density matrix this configuration produces."""
        return apply_product_channel(self.channels, self.precursor.density())


@dataclass(frozen=True, eq=False)
class SearchResult:
    best: LCConfiguration
    hs_distance: float
    trace_distance: float
    restarts_run: int
    master_seed: int
    # (seed, final objective, trace length) per restart; the trace length
    # counts the initial objective plus one per move (the precursor move,
    # then one per party), so it is 1 + iterations * (n + 1)
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
    target (deterministic tie-break in degenerate cases).  target must be
    a DensityMatrix (`_check_type`).
    """
    _check_type("target", target, DensityMatrix)
    dims = target.shape.local_dims
    h = apply_adjoint_product_channel(channels, target.entries, dims)
    return PureState(target.shape, _top_eigenvector(h))


def _objective(x, rho_vec):
    """Squared Frobenius distance ||x - rho||^2 of paired vectors, one value
    per batch element: one sum over the float view of x - rho."""
    r = (x - rho_vec).view(float)
    return (r * r).sum(axis=-1)


def _gram_pair(t, rho_view):
    """Party k's Gram pair (G, C) = (T T^H, R T^H), each (..., d^2, d^2).

    T and R are the (..., d^2, M) column views around party k of the
    paired vectors Y_k (the other parties' channels applied to Phi Phi^H)
    and rho, with the other parties' pairs in the same order as columns:
    `_column_view` of Y_k in the original layout, or the plain
    `_leading_view` of Y_k when party k's pair axis leads.  The output is
    X = S T in that view, so for any Liouville matrix S of party k
    ||S T - R||^2 = Re<S, S G - 2 C> + ||rho||^2: party k's objective
    depends on Y_k only through G and C.
    """
    th = t.conj().swapaxes(-1, -2)
    return t @ th, rho_view @ th


def _gram_objective(s, gram, cross, rho_sq):
    """Party k's objective Re<S, S G - 2 C> + ||rho||^2 from its Gram pair,
    one value per batch element: Re<S, W> is one sum over the product of
    the float views of S and W."""
    w = (s @ gram - 2 * cross).view(float)
    return (s.view(float) * w).sum(axis=(-2, -1)) + rho_sq


def _party_gradient(kraus, s, gram, cross):
    """Gradient of the objective wrt the Kraus stack of party k.

    From the Gram pair, d||S T - R||^2 = 2 Re<dS, E> with E = S G - C, and
    S = sum_m K_m (x) conj(K_m) gives G_m[i,j] = 2 sum_{k,l}
    E[(i,k),(j,l)] K_m[k,l] (E inherits the Hermiticity-preserving
    symmetry of S, G and C, so the conj(K_m) half adds an equal term):
    one matmul of the Kraus stack with E reordered to [(k,l),(i,j)].  All
    arguments may carry a leading batch axis.
    """
    *batch, e, d, _ = kraus.shape
    nb = len(batch)
    err = (s @ gram - cross).reshape(*batch, d, d, d, d)        # [i, k, j, l]
    err = err.transpose(*range(nb), nb + 1, nb + 3, nb, nb + 2)  # [k, l, i, j]
    err = err.reshape(*batch, d * d, d * d)
    g = kraus.reshape(*batch, e, d * d) @ err
    return 2 * g.reshape(kraus.shape)


def _polar_retract(v):
    """Nearest isometry in Frobenius norm: the polar factor of each (r, d) V.

    The factor is V (V^dag V)^(-1/2) (Higham, SIAM J. Sci. Stat. Comput. 7,
    1986), so it comes from the eigendecomposition U L U^dag of the d x d
    Gram matrix V^dag V: the result is V W with W = U L^(-1/2) U^dag.
    Leading axes are a batch.  Each result is checked like a LocalChannel's
    Kraus stack (`_completeness_residual`): its V^dag V is the stack's
    sum_m K_m^dag K_m, which must be I to COMPLETENESS_ATOL (NaN fails too).
    A nearly rank-deficient V (a square Kraus stack at env 1, say) loses
    digits in L^(-1/2) and fails; the rows that fail, and only they, are
    retracted again from the thin SVD V = U' S W'^dag as U' W'^dag and
    checked again, one maximum over them deciding.  Non-finite input is
    computed without warnings and ends in that check.
    """
    with np.errstate(all="ignore"):
        lam, u = np.linalg.eigh(v.conj().swapaxes(-1, -2) @ v)
        iso = v @ ((u / np.sqrt(lam)[..., None, :]) @ u.conj().swapaxes(-1, -2))
        bad = ~(_completeness_residual(iso[..., None, :, :]) <= COMPLETENESS_ATOL)
        if bad.any():
            u, _, wh = np.linalg.svd(v[bad], full_matrices=False)
            iso[bad] = u @ wh
            if not _completeness_residual(iso[bad][:, None]).max() <= COMPLETENESS_ATOL:
                raise InvariantError("Kraus operators do not sum to the identity")
    return iso


def _sphere_gradient(phis, resid, sups, dims):
    """Precursor direction g = M Phi - Re<Phi, M Phi> Phi of each row.

    M = Lambda^dag(X - rho) as a D x D matrix, from resid = X - rho as
    paired vectors by one adjoint product (the Liouville matrices'
    conjugate transposes).  The objective f(Phi) = ||Lambda(Phi Phi^H) -
    rho||^2 has the differential df = 4 Re<dPhi, M Phi>, so g, its
    projection on the tangent space at a unit Phi, is the Riemannian
    gradient on the unit sphere divided by 4.  Leading axes are a batch.
    """
    h = _apply_product_channel_matrix(
        [s.conj().swapaxes(-1, -2) for s in sups], resid)
    mphi = (_from_pairs(h, dims) @ phis[..., None])[..., 0]
    return mphi - (phis.conj() * mphi).real.sum(axis=-1)[..., None] * phis


def _precursor_workspace(rho, rows):
    """The precursor move's line vectors for rows restarts, (rows, 4, D^2),
    allocated once per search (`_run_lock_step`) with rho written into
    row 3 once.  Any row prefix is the buffer for that many rows, so a
    compaction keeps it valid."""
    lines = np.empty((rows, 4, rho.size), dtype=complex)
    lines[:, 3] = rho
    return lines


def _precursor_line(phis, x, rho, sups, dims, v):
    """What the precursor move needs to score every step along its line.

    Returns (g, norms, gram) per row: the direction g (`_sphere_gradient`,
    from the residual X - rho); norms, (..., 2, 2), and gram, (..., 4, 4),
    the real Gram matrices Re<u_i, u_j> of u = (Phi, g) and of the vectors
    v = (X - rho, A1, A2, rho), with A1 = Lambda(g Phi^H + Phi g^H) and
    A2 = Lambda(g g^H) from one product over the stacked pair, each one
    product of float views.  x and rho are paired vectors, x with the
    batch axis.  v is the line-vector buffer of as many rows as phis
    (`_precursor_workspace`), rho in its row 3: X - rho is written into
    row 0 and A1 and A2 into rows 1:3.  Neither the D x D operators
    (`_line_operators`) nor their paired copy is bound here while the
    forward product runs, so each is freed once read.
    """
    g = _sphere_gradient(phis, np.subtract(x, rho, out=v[:, 0]), sups, dims)
    u = np.concatenate([phis[..., None, :], g[..., None, :]], axis=-2)
    v[:, 1:3] = _apply_product_channel_matrix(
        [w[:, None] for w in sups], _line_operators(u, dims))
    uf, vf = u.view(float), v.view(float)
    return g, uf @ uf.swapaxes(-1, -2), vf @ vf.swapaxes(-1, -2)


def _line_operators(u, dims):
    """g Phi^H + Phi g^H and g g^H of each row's u = (Phi, g), (B, 2, D),
    as paired vectors (B, 2, D^2): the D x D products die on return."""
    s = u[:, 1:, :, None] * u.conj()[:, :, None, :]   # g Phi^H, g g^H
    s[:, 0] += s[:, 0].conj().swapaxes(-1, -2)   # + Phi g^H
    return _to_pairs(s, dims)


def _line_norm(t, norms):
    """||Phi - t g||^2 = ||Phi||^2 - 2 t Re<Phi, g> + t^2 ||g||^2 for steps
    t (..., R), from the Gram matrix norms of (Phi, g) (`_precursor_line`)."""
    return norms[..., 0, :1] - t * (2 * norms[..., 0, 1:] - t * norms[..., 1, 1:])


def _line_objective(t, norms, gram):
    """The objective at Phi(t) = (Phi - t g) / ||Phi - t g|| for steps t
    (..., R), in closed form from `_precursor_line`'s Gram matrices.

    With N = ||Phi - t g||^2 (`_line_norm`) the output is
    (X - t A1 + t^2 A2) / N, so the residual is sum_i w_i v_i over
    v = (X - rho, A1, A2, rho), with w = (1, -t, t^2, 1 - N) / N, and the
    objective is w^T gram w.  Written around the residual X - rho rather
    than X, every term is as small as the residual near a minimum, so the
    score does not lose the digits of ||rho||^2 to cancellation.
    """
    n = _line_norm(t, norms)
    w = np.empty(t.shape + (4,))
    w[..., 0], w[..., 1], w[..., 2], w[..., 3] = 1, -t, t * t, 1 - n
    w /= n[..., None]
    return ((w @ gram) * w).sum(axis=-1)


def _starts(target, env_dims, seeds):
    """Starting points of one search as raw stacks, one per seed.

    Returns (kraus, phis): per party a (B, e, d, d) Kraus stack, and the
    (B, D) precursor amplitudes, B = len(seeds).  Element 0 is the
    identity channel padded with zero Kraus operators and the target's
    top eigenvector (`_top_eigenvector`); element b >= 1 draws from
    default_rng(seeds[b]) a Haar isometry haar_isometry(d e, d) per party,
    then a complex Gaussian precursor, normalized.
    """
    dims, dim = target.shape.local_dims, target.shape.total_dim
    kraus = [np.zeros((len(seeds), e, d, d), dtype=complex)
             for d, e in zip(dims, env_dims)]
    phis = np.empty((len(seeds), dim), dtype=complex)
    for kr, d in zip(kraus, dims):
        kr[0, 0] = np.eye(d)
    phis[0] = _top_eigenvector(target.entries)
    for b, seed in enumerate(seeds[1:], start=1):
        rng = np.random.default_rng(seed)
        for kr, d, e in zip(kraus, dims, env_dims):
            kr[b] = haar_isometry(d * e, d, rng).reshape(e, d, d)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phis[b] = z / np.linalg.norm(z)
    return kraus, phis


INITIAL_STEP = 0.1
STEP_FLOOR = 1e-8
STEP_GROWTH = 1.3
STEP_CAP = 10.0
# a channel move is one trial round of this many rungs, the row's step
# halved again for each, all scored at once
CHANNEL_RUNGS = 2

# caps on one search's size, whatever max_iters is.  A restart holds about
# 9 complex D^2-vectors, the precursor move's line vectors 4 of them: per
# added restart (one iteration, noisy GHZ target, qubits) the tracemalloc
# peak rises 2.3, 9.0 and 36.0 MB at D = 128, 256 and 512, 0.13 MB at
# (3,3,3) with env 9.  The line vectors alone would be 8.6 GB at D = 4096
# and 8 restarts.  So restarts x D^2 may not exceed SEARCH_SIZE_LIMIT,
# about 1.2 GB of working set: 8 restarts at D = 1024, 2 at D = 2048, none
# at D = 4096.  RESTART_LIMIT restarts at D = 27 peak near 32 MB (77 MB of
# process RSS over 40 iterations).
RESTART_LIMIT = 256
ITERATION_LIMIT = 10 ** 6
SEARCH_SIZE_LIMIT = 2 ** 23

CONVERGED = "converged"
STEP_UNDERFLOW = "step_underflow"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class RestartDiagnostics:
    """How one restart of the search ran.

    iterations: iterations run (each begins with the precursor move);
    stop_reason, decided at the end of an iteration: STEP_UNDERFLOW (a
    channel move's step fell below STEP_FLOOR during it), else CONVERGED
    (it lowered the objective by less than tol), or MAX_ITERS after the
    last one; accepted_steps / rejected_steps: channel-move trials that
    were kept / that halved the step.  A channel move keeps at most one
    trial and may keep none, so accepted_steps <= iterations x n.
    """

    iterations: int
    stop_reason: str
    accepted_steps: int
    rejected_steps: int


def _run_lock_step(target, kraus, phis, max_iters, tol):
    """Alternating minimization of every starting point, in lock step.

    All restarts advance together through stacked raw arrays: one Kraus
    stack (B, e, d, d) and Liouville matrix (B, d^2, d^2) per party, the
    precursor amplitudes Phi (B, D), their outputs X as paired vectors
    (B, D^2), and obj and the two step sizes of shape (B,); each kernel
    call serves every live restart at once.  Each restart still follows
    its own serial algorithm, with its own step sizes:

      * precursor move, a gradient step on the unit sphere: from X, one
        adjoint product gives the direction g (`_sphere_gradient`) and one
        product over a stacked pair the outputs A1 and A2
        (`_precursor_line`), written into the move's line vectors
        (B, 4, D^2), one buffer per search (`_precursor_workspace`).  The
        trial steps form a ladder, the restart's precursor step halved
        again and again down to the last rung >= STEP_FLOOR (at most
        floor(log2(STEP_CAP / STEP_FLOOR)) + 1 rungs), all scored at once
        in closed form (`_line_objective`): no trial makes a kernel call.
        The first rung t that does not raise the objective (by more than
        1e-15) is taken: Phi becomes (Phi - t g) / ||Phi - t g||, the
        objective becomes the rung's closed-form score, and the step
        becomes t times STEP_GROWTH, capped at STEP_CAP.  X is not
        updated: the channel moves rebuild it from the new Phi.  If no
        rung passes, Phi and the step stay as they were and the restart
        goes on to its channel moves;
      * per party k, Y_k (the other parties applied to Phi Phi^H, paired
        once per iteration from the working Phi) is computed once and
        reduced to its Gram pair (`_gram_pair`), which gives the gradient
        and scores every trial: a trial is a retraction and d^2 x d^2
        products.  Y_k comes from a running prefix, Phi Phi^H with the
        moved parties 0..k-1 applied, whose layout rotates as the parties
        move: at party k's move, party k's pair axis leads.  For k < n-1,
        Y_k is the prefix with that axis rotated to the back without
        applying anything (`_rotate`, the one copy), then parties
        k+1..n-1 through the kernel (`_apply_leading`), in ascending order
        as in `_apply_product_channel_matrix`, which ends in the original
        layout, read by party k's column view (`_column_view`); the last
        party's Y_k is the prefix itself, read by a reshape
        (`_leading_view`).  After the move the prefix is extended by party
        k's new Liouville matrix, so after the last party it is the next
        iteration's X, in the original layout: per iteration the channel
        moves make n(n-1)/2 + n kernel steps rather than n(n-1), and n-1
        rotations that apply nothing.  Party k's move is one trial round
        on the whole working set: every row scores its step and its step
        halved, CHANNEL_RUNGS rungs in all, in one retraction
        (`_polar_retract`), one `liouville` and one `_gram_objective`
        call.  A rung below STEP_FLOOR is not tried.  A row takes the
        first rung that does not raise its objective (by more than
        1e-15), counts one accepted step and as many rejections as rungs
        before it, and its step becomes that rung times STEP_GROWTH,
        capped at STEP_CAP.  A row that takes no rung keeps its channel
        and objective, and its step is halved once per rung tried, each
        counted as a rejection.  So a restart whose step fell below
        STEP_FLOOR tries nothing for the rest of the iteration;
      * every stop is decided once, at the end of an iteration: a restart
        whose step underflowed stops with STEP_UNDERFLOW, else one whose
        objective fell by less than tol over the iteration with CONVERGED;
        after max_iters the rest stop with MAX_ITERS.

    The working arrays hold only the live restarts' rows, and ids maps
    each row to its restart.  A restart leaves once, at the end of the
    iteration it stops in: its rows are written back to kraus and phis,
    and every working array is compacted by one mask, so the moves use
    the working arrays directly.  Until the first restart stops, the
    working Kraus stacks and precursors are the caller's arrays
    themselves, updated in place.  The line-vector buffer
    is not compacted: the live rows use its row prefix, which a compaction
    leaves valid (rho's rows are all alike, and the other rows are written
    before they are read).  Nothing is kept per move or per iteration, so
    the memory a search holds does not grow with max_iters.

    No move raises a restart's objective, and element b's arithmetic does
    not depend on the other elements, so a restart's result does not
    depend on how restarts are batched.

    The starting points come as raw stacks (`_starts`): kraus, one
    (B, e, d, d) Kraus stack per party, and phis, the (B, D) precursor
    amplitudes.  On return they hold each restart's final values.

    Returns (finals, diagnostics): each restart's final objective (its
    initial one if max_iters is 0) and its RestartDiagnostics.
    """
    dims = target.shape.local_dims
    rho = _to_pairs(target.entries, dims)
    rho_views = [_column_view(rho, dims, k) for k in range(len(dims))]
    last = len(dims) - 1
    rho_sq = np.vdot(rho, rho).real
    n = len(phis)
    work = _precursor_workspace(rho, n)
    # the precursor move's ladder of trial steps, as fractions of its step
    rungs = 0.5 ** np.arange(math.floor(math.log2(STEP_CAP / STEP_FLOOR)) + 1)
    # the rungs of one channel trial round, as fractions of the row's step
    halvings = 0.5 ** np.arange(CHANNEL_RUNGS)
    # the working set: row i belongs to restart ids[i]
    ks, ph = list(kraus), phis
    sups = [liouville(kr) for kr in ks]
    x = _apply_product_channel_matrix(
        sups, _to_pairs(ph[:, :, None] * ph[:, None, :].conj(), dims))
    obj = _objective(x, rho)
    step, pstep = np.full(n, INITIAL_STEP), np.full(n, INITIAL_STEP)
    accepted, rejected = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    ids = np.arange(n, dtype=np.int64)
    diags, finals = [None] * n, np.empty(n)
    it = 0   # the iteration a stopping restart is in

    def leave(gone, reasons):
        """The rows in mask gone stop, each for its entry of reasons (one
        per row): write them back with their final objectives, record
        their diagnostics and compact the working set."""
        nonlocal ks, sups, ph, x, obj, step, pstep, accepted, rejected, ids, work
        out = ids[gone]
        for kr, w in zip(kraus, ks):
            kr[out] = w[gone]
        phis[out] = ph[gone]
        finals[out] = obj[gone]
        for r, why, a, j in zip(out.tolist(), reasons[gone].tolist(),
                                accepted[gone].tolist(), rejected[gone].tolist()):
            diags[r] = RestartDiagnostics(it, why, a, j)
        keep = ~gone
        ks, sups = [w[keep] for w in ks], [s[keep] for s in sups]
        ph, x, obj, step, pstep, accepted, rejected, ids = (
            a[keep] for a in (ph, x, obj, step, pstep, accepted, rejected,
                              ids))
        work = work[:len(ids)]

    for it in range(1, max_iters + 1):
        if not ids.size:
            break
        prev = obj.copy()

        # precursor move: the first rung of the ladder that does not raise
        # the objective, every rung scored in closed form
        g, norms, gram = _precursor_line(ph, x, rho, sups, dims, work)
        x = None   # X - rho is in the buffer: X is not needed again
        t = pstep[:, None] * rungs
        line = _line_objective(t, norms, gram)
        ok = (line <= obj[:, None] + 1e-15) & (t >= STEP_FLOOR)
        rows = np.arange(len(ids))
        first = ok.argmax(axis=1)
        up = ok[rows, first]
        if up.any():
            # the rows that move: usually all, then a slice and no gathers
            up = slice(None) if up.all() else up
            tu = t[rows, first][up, None]
            ph[up] = (ph[up] - tu * g[up]) / np.sqrt(_line_norm(tu, norms[up]))
            obj[up] = line[rows, first][up]
            pstep[up] = np.minimum(tu[:, 0] * STEP_GROWTH, STEP_CAP)

        # channel moves, one party at a time; left is Phi Phi^H with the
        # moved parties 0..k-1 applied, party k's pair axis leading
        left = _to_pairs(ph[:, :, None] * ph[:, None, :].conj(), dims)
        for k, d in enumerate(dims):
            if k < last:
                y = _rotate(left, d * d)
                for s in sups[k + 1:]:
                    y = _apply_leading(y, s)
                t = _column_view(y, dims, k)
            else:
                t = _leading_view(left, d * d)
            gram, cross = _gram_pair(t, rho_views[k])
            v0 = ks[k].reshape(len(ids), -1, d)
            g = _party_gradient(ks[k], sups[k], gram, cross).reshape(v0.shape)
            # one trial round: each row tries its step and its halvings at
            # once; a rung below STEP_FLOOR counts as not tried, so a row
            # whose step fell below it sits out the rest of the iteration
            steps = step[:, None] * halvings
            cand_k = _polar_retract(v0[:, None] - steps[..., None, None] * g[:, None])
            cand_k = cand_k.reshape(*steps.shape, *ks[k].shape[1:])
            cand_s = liouville(cand_k)
            t_obj = _gram_objective(cand_s, gram[:, None], cross[:, None], rho_sq)
            tried = steps >= STEP_FLOOR
            ok = (t_obj <= obj[:, None] + 1e-15) & tried
            first, hit = ok.argmax(axis=1), ok.any(axis=1)
            # accepted at rung r, after r rejections: let the step recover
            # so progress stays fast
            up, r = hit.nonzero()[0], first[hit]
            ks[k][up], sups[k][up] = cand_k[up, r], cand_s[up, r]
            obj[up] = np.minimum(obj[up], t_obj[up, r])
            step[up] = np.minimum(steps[up, r] * STEP_GROWTH, STEP_CAP)
            accepted += hit
            # rejected at every rung tried: one halving per rung
            n_tried = tried.sum(axis=1)
            step[~hit] /= 2.0 ** n_tried[~hit]
            rejected += np.where(hit, first, n_tried)
            left = _apply_leading(left, sups[k])
        # the channel moves' products die here, not under the next
        # precursor move's temporaries (nor as a compaction's stale X)
        x, left, y, t = left, None, None, None
        # every stop is decided here, once per iteration; underflow wins
        dead = step < STEP_FLOOR
        done = dead | (prev - obj < tol)
        if done.any():
            leave(done, np.where(dead, STEP_UNDERFLOW, CONVERGED))
    leave(np.ones(len(ids), dtype=bool), np.full(len(ids), MAX_ITERS))
    return finals.tolist(), tuple(diags)


def lc_distance_search(target, env_dims=None, restarts=8, max_iters=2000,
                       tol=1e-14, master_seed=0):
    """Multi-restart variational search for an LC representation of target.

    Each iteration is a precursor move, a gradient step on the unit sphere
    whose trial steps are scored in closed form, then one channel move per
    party (`_run_lock_step`).  Restart 0 always starts from the
    identity-like configuration (precursor = top eigenvector of the target,
    identity channels padded to env_dims), so pure targets converge
    immediately.  For mixed targets that start is stationary: the output
    is quadratic in each Kraus operator, so the zero-padded ones get zero
    gradient, and the precursor is an eigenvector of Lambda^dag(X - rho) =
    |Phi><Phi| - rho, so its gradient vanishes too; restart 0 typically
    stops after one iteration at the objective of the top-eigenvector
    precursor.  Remaining
    restarts draw seeded Haar-random channels and precursors; per-restart
    seeds derive from the master seed.  The starts are built as raw stacks
    (`_starts`); only the best configuration is built from validated
    LocalChannels and a PureState.  All restarts run in lock step on one
    batch axis (`_run_lock_step`); a restart's arithmetic does not depend
    on the others, so its result is the same however many restarts run
    beside it.  The best restart wins, ties broken by lowest index.  Per
    restart, `per_restart_log` holds (seed, final objective, trace length)
    and `diagnostics` its RestartDiagnostics.  The trace length counts the
    initial objective plus one per move, 1 + iterations * (n + 1); the
    search keeps no per-move objectives, only each restart's final one.

    Options are checked before any restart is built, and the search keeps
    the values the checks return (`states._check_int`, `states._check_real`:
    numpy numbers count, booleans do not): restarts an integer in
    [1, RESTART_LIMIT], max_iters in [0, ITERATION_LIMIT], master_seed
    >= 0, every env_dims entry in [1, d^2], and tol a finite real >= 0;
    otherwise an InvariantError that names the option.  Before them,
    target must be a DensityMatrix (`_check_type`).  After them, a search
    whose restarts x D^2 (D the target's total dimension) exceeds
    SEARCH_SIZE_LIMIT is an UnsupportedError, raised before any restart
    is built.
    """
    _check_type("target", target, DensityMatrix)
    dims = target.shape.local_dims
    if env_dims is None:
        env_dims = tuple(d * d for d in dims)
    try:
        env_dims = tuple(env_dims)
    except TypeError:
        raise InvariantError("env_dims must be a sequence of integers") from None
    if len(env_dims) != len(dims):
        raise InvariantError("need one environment dimension per party")
    env_dims = tuple(_check_int("env_dims entry", e, 1, d * d)
                     for d, e in zip(dims, env_dims))
    restarts = _check_int("restarts", restarts, 1, RESTART_LIMIT)
    max_iters = _check_int("max_iters", max_iters, 0, ITERATION_LIMIT)
    master_seed = _check_int("master_seed", master_seed, 0)
    tol = _check_real("tol", tol, 0)
    dim = target.shape.total_dim
    if restarts * dim * dim > SEARCH_SIZE_LIMIT:
        raise UnsupportedError(f"{restarts} restarts at total dimension {dim} "
                               f"exceed the search size limit: restarts x "
                               f"D^2 <= {SEARCH_SIZE_LIMIT}")

    seeds = [int(np.random.SeedSequence([master_seed, r]).generate_state(1)[0])
             for r in range(restarts)]
    kraus, phis = _starts(target, env_dims, seeds)
    finals, diags = _run_lock_step(target, kraus, phis, max_iters, tol)
    b = int(np.argmin(finals))
    best = LCConfiguration(
        PureState(target.shape, phis[b]),
        tuple(LocalChannel(d, kr[b]) for d, kr in zip(dims, kraus)))
    out = best.output()
    return SearchResult(best=best,
                        hs_distance=distance("hilbert_schmidt", out, target),
                        trace_distance=distance("trace", out, target),
                        restarts_run=restarts,
                        master_seed=master_seed,
                        per_restart_log=tuple(
                            (s, f, 1 + d.iterations * (len(dims) + 1))
                            for s, f, d in zip(seeds, finals, diags)),
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
    # u1 and u2 of each pair in turn, each over its own np.linalg.norm
    u = np.array(pairs, dtype=complex).reshape(-1, 8)
    u = u / _row_norms(u)[:, None]
    return list(zip(u[0::2], u[1::2]))


def _reconstruction_error(rho, p, a, b):
    """max |p |a><a| + (1 - p) |b><b| - rho| over the entries; each outer
    product a broadcast product, as np.outer forms it."""
    recon = p * (a[:, None] * a.conj()) + (1 - p) * (b[:, None] * b.conj())
    return np.abs(recon - rho.entries).max()


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
    a local-unitary frame.  Everything else is Unknown - never an error;
    rho that is not a DensityMatrix is an InvariantError (`_check_type`).
    """
    _check_type("rho", rho, DensityMatrix)
    if rho.shape.n_parties == 2:
        return Certificate(verdict=LCCC_BIPARTITE, plan=build_synthesis_plan(rho))
    if (rho.shape.local_dims != (2, 2, 2)
            or len((ens := spectral_ensemble(rho)).states) != 2):
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
