"""Local quantum channels in Kraus form, noise constructors, and the
parameter-counting arithmetic for local contamination.

A channel on one d-level party is stored canonically as Kraus operators
{K_m}, m = 1..e with e <= d^2 and sum_m K_m^dag K_m = I.  The alternative
description by environment-state overlaps (a d^2 x d^2 Gram matrix) is a
constructor, not a storage format.

Product channels act through one kernel on one operator layout.  A
channel is applied as its Liouville matrix S = sum_m K_m (x) conj(K_m),
and a D x D operator as its party-paired vector (`_to_pairs`), in which
each party's (row, col) index pair sits next to the other.  The kernel
(`_apply_leading`) acts on the leading pair axis only: one product
T^T S^T per batch element, with T the (d^2, M) view of the vector, which
reads both transposed operands in place and leaves the party's pair axis
last.  So the layout rotates by one party per step, and a product
channel, one step per party in ascending order, ends in the original
layout without a transposing copy (de Boor's tensor-product algorithm).
The operator layout changes only at the API boundary: once into pairs
and once back to D x D per call of `apply_product_channel` or
`apply_adjoint_product_channel`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import (DensityMatrix, InvariantError, UnsupportedError,
                     _as_complex, _as_square, _check_choice,
                     _check_hermitian_psd, _check_int, _check_real,
                     _check_type, _shape_argument, deterministic_eigh)

COMPLETENESS_ATOL = 1e-9
GRAM_ATOL = 1e-7


@dataclass(frozen=True, eq=False)
class LocalChannel:
    """CPTP map on a single party, as Kraus operators."""

    dim: int
    kraus: np.ndarray  # (e, d, d)

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_int("channel dim", self.dim, 1))
        k = _as_complex(self.kraus)
        if k.ndim != 3 or k.shape[1:] != (self.dim, self.dim):
            raise InvariantError(
                f"expected Kraus stack of shape (e, {self.dim}, {self.dim})")
        if not 1 <= k.shape[0] <= self.dim ** 2:
            raise InvariantError("need 1 <= e <= d^2 Kraus operators")
        if _completeness_residual(k) > COMPLETENESS_ATOL:
            raise InvariantError("Kraus operators do not sum to the identity")
        k.flags.writeable = False
        object.__setattr__(self, "kraus", k)

    @property
    def env_dim(self):
        return self.kraus.shape[0]

    def __call__(self, m):
        """Apply to a finite dim x dim matrix (`_as_square`): one matvec of
        its Liouville matrix."""
        vec = _as_square("m", m, self.dim).reshape(-1)
        return (liouville(self.kraus) @ vec).reshape(self.dim, self.dim)

    def completeness_residual(self):
        return float(_completeness_residual(self.kraus))


@functools.cache
def _identity(d):
    """A read-only d x d identity, built once per d."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _completeness_residual(kraus):
    """max |sum_m K_m^dag K_m - I| of each (..., e, d, d) Kraus stack.

    The operators may be rectangular (any row count); a NaN entry gives
    NaN.  The sum is one product V^dag V, V the operators stacked row-wise,
    less the cached identity (`_identity`).
    """
    *batch, e, rows, d = kraus.shape
    v = kraus.reshape(*batch, e * rows, d)
    comp = v.conj().swapaxes(-1, -2) @ v
    return np.abs(comp - _identity(d)).max(axis=(-2, -1))


def identity_channel(d, env_dim=1):
    """Identity map, optionally padded with zero Kraus operators; d an
    integer >= 1 and env_dim one in [1, d^2] (`_check_int`)."""
    d = _check_int("d", d, 1)
    env_dim = _check_int("env_dim", env_dim, 1, d * d)
    k = np.zeros((env_dim, d, d), dtype=complex)
    k[0] = np.eye(d)
    return LocalChannel(d, k)


@dataclass(frozen=True, eq=False)
class AdjointMap:
    """Heisenberg-picture adjoint X -> sum_m K_m^dag X K_m (unital, not TP)."""

    dim: int
    kraus: np.ndarray  # adjoints of the channel's Kraus operators

    __call__ = LocalChannel.__call__


def adjoint_channel(c):
    """Adjoint of a LocalChannel c, satisfying Tr(rho L(sig)) = Tr(L^dag(rho) sig)."""
    _check_type("c", c, LocalChannel)
    return AdjointMap(c.dim, np.transpose(c.kraus, (0, 2, 1)).conj())


# ---------------------------------------------------------------------------
# environment-Gram representation


@dataclass(frozen=True, eq=False)
class EnvironmentGram:
    """Overlap matrix G[(i,j),(i',j')] = <e_{i'j'}|e_{ij}> of the d^2
    environment states describing a system-environment interaction.

    Trace preservation of the induced channel is the d^2 conditions
    sum_j G[(i,j),(i',j)] = delta_{ii'}.
    """

    dim: int
    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_int("channel dim", self.dim, 1))
        g = _as_square("Gram matrix", self.gram, self.dim ** 2)
        _check_hermitian_psd(g, GRAM_ATOL, "Gram matrix")
        t = g.reshape(self.dim, self.dim, self.dim, self.dim)
        # sum over the shared environment output index j
        tp = np.einsum("ijkj->ik", t)
        if np.max(np.abs(tp - np.eye(self.dim))) > GRAM_ATOL:
            raise InvariantError(
                "Gram matrix violates trace preservation "
                "(sum_j G[(i,j),(i',j)] != delta)")
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)


def channel_from_environment_gram(g):
    """Realize the channel induced by an environment Gram matrix.

    Factors G = V^dag V by `deterministic_eigh` (negative dust below 1e-12
    clipped to zero), so each row of V, and with it each Kraus operator,
    follows the package's degeneracy and phase rule: its largest-magnitude
    entry is real positive.  Each Kraus operator is read off one row of V:
    K_m[j, i] = V[m, i*d + j].  env_dim equals the numerical rank of G.
    g must be an EnvironmentGram (`_check_type`).
    """
    _check_type("g", g, EnvironmentGram)
    d = g.dim
    w, u = deterministic_eigh((g.gram + g.gram.conj().T) / 2)
    w = np.where(w < 1e-12, 0.0, w)
    keep = w > 0
    v = (np.sqrt(w[keep])[:, None] * u[:, keep].conj().T)  # rank x d^2
    if v.shape[0] == 0:
        raise InvariantError("Gram matrix has rank zero")
    kraus = v.reshape(-1, d, d).transpose(0, 2, 1)  # K_m[j,i] = V[m, (i,j)]
    return LocalChannel(d, kraus)


def _environment_gram(kraus):
    """The raw Gram matrix V^dag V of an (e, d, d) Kraus stack, any e,
    with V[m, (i, j)] = K_m[j, i]: the matrix `channel_from_environment_gram`
    factors."""
    e, d, _ = kraus.shape
    v = kraus.transpose(0, 2, 1).reshape(e, d * d)
    return v.conj().T @ v


def environment_gram_from_channel(c):
    """Inverse direction for a LocalChannel c:
    G[(i,j),(i',j')] = sum_m conj(K_m[j,i]) K_m[j',i']."""
    _check_type("c", c, LocalChannel)
    return EnvironmentGram(c.dim, _environment_gram(c.kraus))


# ---------------------------------------------------------------------------
# product-channel application: one local-Kraus kernel in Liouville form


def liouville(kraus):
    """Liouville matrix S = sum_m K_m (x) conj(K_m) of a (..., e, d, d) Kraus stack.

    With operators flattened row-major, vec(sum_m K_m X K_m^dag) = S vec(X),
    so S[(i,k),(j,l)] = sum_m K_m[i,j] conj(K_m[k,l]).  The adjoint map
    X -> sum_m K_m^dag X K_m has Liouville matrix S^H.  Leading axes are a
    batch: one S per stack.  The sum over m is one matmul of the stack's
    (..., e, d^2) reshape, read transposed in place, with its conjugate;
    only the final [(i,j),(k,l)] -> [(i,k),(j,l)] reorder copies.
    """
    *batch, e, d, _ = kraus.shape
    k = kraus.reshape(*batch, e, d * d)
    s = (k.swapaxes(-1, -2) @ k.conj()).reshape(*batch, d, d, d, d)
    return s.swapaxes(-3, -2).reshape(*batch, d * d, d * d)


def _to_pairs(mat, dims):
    """A (..., D, D) operator as its (..., D^2) party-paired vector.

    Entry [(i_1, j_1), ..., (i_n, j_n)] (big-endian, as everywhere in the
    package) is mat[i, j]: each party's (row, col) index pair sits
    together, so a channel on party k acts on one contiguous middle axis.
    Leading axes are a batch.
    """
    nb, n = mat.ndim - 2, len(dims)
    t = mat.reshape(*mat.shape[:-2], *dims, *dims)
    pairs = [nb + a for k in range(n) for a in (k, n + k)]
    return t.transpose(*range(nb), *pairs).reshape(*mat.shape[:-2], -1)


def _from_pairs(vec, dims):
    """Inverse of `_to_pairs`: (..., D^2) -> (..., D, D)."""
    nb, n, big = vec.ndim - 1, len(dims), math.prod(dims)
    t = vec.reshape(*vec.shape[:-1], *(d for d in dims for _ in (0, 1)))
    rows_cols = [nb + 2 * k + a for a in (0, 1) for k in range(n)]
    return t.transpose(*range(nb), *rows_cols).reshape(*vec.shape[:-1], big, big)


def _column_view(vec, dims, k):
    """A paired vector as the (..., d^2, M) matrix a Liouville matrix of
    party k acts on: rows are party k's (row, col) pair, columns the other
    parties' pairs, M = (L R)^2, L and R the dimensions of the parties
    before and after k.  One swapaxes of the (..., L^2, d^2, R^2) view,
    so one copy unless L or R is 1.  The sizes are explicit, so an empty
    batch reshapes too."""
    l2, d2 = math.prod(dims[:k]) ** 2, dims[k] ** 2
    m = vec.shape[-1] // d2
    t = vec.reshape(vec.shape[:-1] + (l2, d2, m // l2)).swapaxes(-3, -2)
    return t.reshape(t.shape[:-3] + (d2, m))


def _leading_view(vec, d2):
    """A paired vector as the (..., d2, M) matrix whose rows are its leading
    pair axis, of size d2: a view.  The sizes are explicit, so an empty
    batch reshapes too."""
    return vec.reshape(vec.shape[:-1] + (d2, vec.shape[-1] // d2))


def _apply_leading(vec, s):
    """Apply the Liouville matrix s to the leading pair axis of a paired
    vector, and rotate that axis to the back.

    With T the (..., d^2, M) view of vec (`_leading_view`), the result is
    T^T S^T = (S T)^T flattened: the product reads both transposed
    operands in place, so the step makes no copy, and the party's pair axis
    comes out last.  Applied once per party in ascending order, the steps
    leave the vector in its original layout (de Boor's tensor-product
    algorithm).  Leading axes of vec and s are a batch (broadcast against
    each other): element b gets the same arithmetic as the unbatched call
    on vec[b] and s[b].  Method calls rather than numpy functions keep the
    per-call overhead low, which dominates at (2, 2, 2).
    """
    x = _leading_view(vec, s.shape[-1]).swapaxes(-1, -2) @ s.swapaxes(-1, -2)
    return x.reshape(x.shape[:-2] + (vec.shape[-1],))


def _rotate(vec, d2):
    """Rotate the leading pair axis, of size d2, of a paired vector to the
    back without applying anything: the one step of the layout that copies."""
    return _leading_view(vec, d2).swapaxes(-1, -2).reshape(vec.shape)


def _apply_product_channel_matrix(sups, vec):
    """Apply one Liouville matrix per party, in ascending party order, to a
    raw paired vector (`_to_pairs`): one `_apply_leading` step per party,
    so the vector ends in its original layout and no step copies.  vec and
    the Liouville matrices may carry leading batch axes, as in
    `_apply_leading`."""
    for s in sups:
        vec = _apply_leading(vec, s)
    return vec


def _check_channels(channels, dims):
    """Raise unless channels is a sequence (it has a length) of one
    LocalChannel per party, of that party's dimension."""
    try:
        count = len(channels)
    except TypeError:
        raise InvariantError("channels must be a sequence of LocalChannels, "
                             f"got {type(channels).__name__}") from None
    if count != len(dims):
        raise InvariantError("need exactly one channel per party")
    for k, (c, d) in enumerate(zip(channels, dims)):
        _check_type(f"channel on party {k}", c, LocalChannel)
        if c.dim != d:
            raise InvariantError(
                f"channel on party {k} has dim {c.dim}, party has dim {d}")


def apply_product_channel(channels, rho):
    """(Lambda_1 (x) ... (x) Lambda_n)(rho) for one LocalChannel per party;
    rho a DensityMatrix (`_check_type`)."""
    _check_type("rho", rho, DensityMatrix)
    dims = rho.shape.local_dims
    _check_channels(channels, dims)
    out = _apply_product_channel_matrix([liouville(c.kraus) for c in channels],
                                        _to_pairs(rho.entries, dims))
    return DensityMatrix(rho.shape, _from_pairs(out, dims))


def apply_adjoint_product_channel(channels, mat, dims):
    """Tensor product of per-party adjoints applied to a raw D x D matrix.

    dims is a nonempty sequence of integers >= 1 (`_shape_argument`) and
    mat a finite D x D matrix (`_as_square`)."""
    shape = _shape_argument("dims", dims)
    dims = shape.local_dims
    _check_channels(channels, dims)
    sups = [liouville(c.kraus).conj().T for c in channels]
    vec = _to_pairs(_as_square("mat", mat, shape.total_dim), dims)
    return _from_pairs(_apply_product_channel_matrix(sups, vec), dims)


def compose(outer, inner):
    """Channel composition outer(inner(.)) as a single Kraus set.

    The raw product set has e_outer * e_inner elements.  Its environment
    Gram matrix is factored by `channel_from_environment_gram`, so the
    result has env_dim equal to the Gram matrix's numerical rank (<= d^2).
    outer and inner must be LocalChannels.
    """
    _check_type("outer", outer, LocalChannel)
    _check_type("inner", inner, LocalChannel)
    if outer.dim != inner.dim:
        raise InvariantError("composition needs matching dimensions")
    d = outer.dim
    prods = np.einsum("mij,njk->mnik", outer.kraus, inner.kraus).reshape(-1, d, d)
    return channel_from_environment_gram(EnvironmentGram(d, _environment_gram(prods)))


# ---------------------------------------------------------------------------
# constructors


def haar_isometry(rows, cols, rng):
    """Haar-random isometry via QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_local_channel(d, env_dim, seed):
    """Seeded Haar-random channel: Kraus blocks of a (d*e) x d isometry,
    d an integer >= 1, env_dim = e one in [1, d^2] and seed one >= 0
    (`_check_int`)."""
    d = _check_int("d", d, 1)
    env_dim = _check_int("env_dim", env_dim, 1, d * d)
    rng = np.random.default_rng(_check_int("seed", seed, 0))
    v = haar_isometry(d * env_dim, d, rng)
    return LocalChannel(d, v.reshape(env_dim, d, d))


def _weyl_operators(d):
    """Generalized Pauli (Heisenberg-Weyl) unitaries X^a Z^b, a,b in 0..d-1,
    in the order a * d + b.

    X^a is the complex identity rolled down a rows, the exact product of a
    shifts.  Z^b stays the chain of matrix products Z^(b-1) @ Z, because
    the channels built on these operators are pinned to its bytes: the
    powers omega^(b k) taken directly, or as a cumulative product of Z's
    diagonal, differ from it in the last bits (the cumulative product at
    d = 3, 6 and 7).
    """
    z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    zb = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        zb.append(zb[-1] @ z)
    return [np.roll(np.eye(d, dtype=complex), a, axis=0) @ z_b
            for a in range(d) for z_b in zb]


def depolarizing_channel(d, p):
    """rho -> (1-p) rho + p I/d; d an integer >= 1 (`_check_int`) and p a
    finite real in [0, 1] (`_check_real`)."""
    d, p = _check_int("d", d, 1), _check_real("noise strength p", p, 0, 1)
    ops = _weyl_operators(d)
    kraus = [np.sqrt(1 - p + p / d ** 2) * ops[0]]
    kraus += [np.sqrt(p) / d * w for w in ops[1:]]
    return LocalChannel(d, np.stack(kraus))


def dephasing_channel(d, p):
    """Scales every off-diagonal element by (1-p); populations untouched.

    d is an integer >= 2, so that the d + 1 Kraus operators fit in d^2
    (`_check_int`), and p a finite real in [0, 1] (`_check_real`).
    """
    d, p = _check_int("d", d, 2), _check_real("noise strength p", p, 0, 1)
    i = np.arange(d)
    kraus = np.zeros((d + 1, d, d), dtype=complex)
    # sqrt(1 - p) I, then sqrt(p) |i><i| for each i
    kraus[[0 * i, i + 1], i, i] = [[np.sqrt(1 - p)], [np.sqrt(p)]]
    return LocalChannel(d, kraus)


def amplitude_damping_channel(p):
    """Qubit energy relaxation: |1> decays to |0> with probability p, a
    finite real in [0, 1] (`_check_real`)."""
    p = _check_real("noise strength p", p, 0, 1)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return LocalChannel(2, np.stack([k0, k1]))


def standard_noise(kind, d, p):
    """Named noise families: kind one of depolarizing, dephasing,
    amplitude_damping (`_check_choice`); d and p as the family's
    constructor takes them.  Amplitude damping is a qubit channel: once d
    is an integer >= 1 and p a finite real in [0, 1], another d is an
    UnsupportedError."""
    kind = _check_choice("kind", kind,
                         ("depolarizing", "dephasing", "amplitude_damping"))
    if kind == "depolarizing":
        return depolarizing_channel(d, p)
    if kind == "dephasing":
        return dephasing_channel(d, p)
    d, p = _check_int("d", d, 1), _check_real("noise strength p", p, 0, 1)
    if d != 2:
        raise UnsupportedError("amplitude damping is only implemented for qubits")
    return amplitude_damping_channel(p)


# ---------------------------------------------------------------------------
# parameter counting


@dataclass(frozen=True)
class ParameterCounts:
    """Real-parameter counts for n parties of d levels each.

    pure_dim:  parameters of a pure state, 2 d^n - 2
    lc_bound:  pure state plus per-party local contamination,
               2 d^n - 2 + n (d^4 - d^2)  (an upper bound; some unitary-like
               transformations are double-counted)
    mixed_dim: parameters of a general density matrix, d^(2n) - 1
    """

    n: int
    d: int
    pure_dim: int
    lc_bound: int
    mixed_dim: int

    @property
    def lc_strictly_smaller(self):
        return self.lc_bound < self.mixed_dim


def parameter_counts(n, d):
    """Exact integer evaluation of the three counts above; n an integer
    >= 1 and d one >= 2 (`_check_int`)."""
    n, d = _check_int("n", n, 1), _check_int("d", d, 2)
    pure = 2 * d ** n - 2
    return ParameterCounts(n=n, d=d,
                           pure_dim=pure,
                           lc_bound=pure + n * (d ** 4 - d ** 2),
                           mixed_dim=d ** (2 * n) - 1)
