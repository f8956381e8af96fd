"""Dense complex state algebra over multipartite systems.

States live over a :class:`SystemShape` with a fixed big-endian multi-index
convention: for local dimensions (d_1, ..., d_n) the flat basis index is
i = sum_k i_k * prod_{m>k} d_m, i.e. party 0 is most significant.  Every
module in this package shares that convention.

The rules behind the state types live here once, and both the validated
dataclasses and the raw-array hot loops call them: arrays of finite
numbers (`_as_complex`, and `_as_square` for a d x d matrix), unit-norm rows
(`_check_unit_rows`), Hermitian PSD matrices (`_check_hermitian_psd`),
the eigenvector phase (`_fix_phases`), the basis inside a degenerate
eigenspace (`deterministic_eigh`, and `_top_eigenvector`, its normalized
top column), a density matrix's support (`DensityMatrix.eigensystem`,
which leaves the clusters it discards, all at most RANK_TOL, as eigh
returns them: `_settled_eigh`),
integer arguments (`_check_int`), real weights and tolerances
(`_check_real`), enumerated arguments such as a kind or a metric name
(`_check_choice`) and the layout of a bipartition (`_cut_permutation`,
`_unfold`, `_fold`).  A stack of states the package builds itself is
checked once, by the same rules, and its PureStates are made from
read-only row views of it (`_pure_states`, `_unchecked`); the public
constructors check every object they are given.  Every public entry point of
`states`, `channels` and `reach` checks its counts and weights through
`_check_int` and `_check_real` and keeps the value they return; a
malformed argument is an InvariantError that names it.  A well-formed
request outside what the package implements is an UnsupportedError,
raised after the argument checks, where its scope is decided: a
SystemShape above MAX_TOTAL_DIM, `ghz_state` n or d below 2, a
`canonical_state` W state or W/GHZ mixture not of three qubits,
`slocc`'s functions given a PureState not of three qubits,
`locc.build_synthesis_plan` given a target that is not bipartite and
`channels.standard_noise` amplitude damping with d other than 2.  The
constructors' ranges: `ghz_state` n and d integers >= 1,
`max_entangled(d)` is `ghz_state(2, d)`, with its checks,
`basis_state` index an integer in [0, D - 1], `z_mixture` p a finite real
in [0, 1].  Arguments that are not numbers are checked the same way:
SystemShape local_dims, `partial_trace` keep and `purify` ancilla_dims
are collections; a `canonical_state` kind, a `channels.standard_noise`
kind and a `distance` metric are one of their names; a `canonical_state`
kind takes only its own parameters (a basis state needs dims and
index); and every state, channel, shape and plan argument is checked
first, by `_check_type`.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-9
RANK_TOL = 1e-10
# eigenvalues closer than this form one degenerate cluster
DEGENERACY_TOL = 1e-9
# largest total dimension a SystemShape may have: one D x D complex matrix
# is then 256 MiB
MAX_TOTAL_DIM = 2 ** 12


class InvariantError(ValueError):
    """A state, channel or protocol violates one of its defining invariants."""


class UnsupportedError(ValueError):
    """The request is well-formed but outside what this package implements."""


@dataclass(frozen=True)
class SystemShape:
    """Party structure: n parties with local dimensions (d_1, ..., d_n).

    local_dims must be a nonempty collection of integers >= 1, else an
    InvariantError naming it (a single integer or None included).  A total
    dimension above MAX_TOTAL_DIM is an UnsupportedError, raised before
    any array of that size exists.
    """

    local_dims: tuple

    def __post_init__(self):
        try:
            dims = tuple(self.local_dims)
        except TypeError:   # not a collection
            dims = None
        if not (dims and all(_is_int(d) and d >= 1 for d in dims)):
            raise InvariantError("local_dims must be a nonempty collection of "
                                 f"integers >= 1, got {self.local_dims!r}")
        object.__setattr__(self, "local_dims", tuple(int(d) for d in dims))
        if self.total_dim > MAX_TOTAL_DIM:
            raise UnsupportedError(f"total dimension {self.total_dim} exceeds "
                                   f"{MAX_TOTAL_DIM}")

    @property
    def n_parties(self):
        return len(self.local_dims)

    @property
    def total_dim(self):
        return math.prod(self.local_dims)

    def concat(self, other):
        return SystemShape(self.local_dims + other.local_dims)


def _is_int(v):
    """An integer (Python, JSON or numpy), not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral)
                               and not isinstance(v, bool))


def _check_int(name, value, lo, hi=None):
    """int(value) if value is an integer (`_is_int`) in [lo, hi], hi None
    meaning no upper bound; otherwise InvariantError naming it."""
    if not (_is_int(value) and lo <= value and (hi is None or value <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InvariantError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _check_choice(name, value, choices):
    """value if it is one of the strings in choices; otherwise (a
    non-string included) InvariantError naming it."""
    if not (isinstance(value, str) and value in choices):
        raise InvariantError(f"{name} must be one of "
                             f"{', '.join(map(repr, choices))}, got {value!r}")
    return value


def _check_real(name, value, lo, hi=math.inf):
    """float(value) if value is a real number (numpy's count, a bool does
    not) that is finite and in [lo, hi]; otherwise InvariantError naming
    it.  An int beyond the float range fails too.  Callers compute with the
    returned float, so a numpy float32 gives float64 arithmetic."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and lo <= x <= hi):
        bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise InvariantError(f"{name} must be a finite real {bounds}, got {value!r}")
    return x


def _as_complex(a):
    """A C-contiguous complex copy of a, checked finite: a validated type
    owns its arrays, so the caller cannot change them after the checks.
    Input numpy cannot convert (a ragged nesting, a string that is not a
    number, an object, an int beyond the float range) is an InvariantError
    too, raised by the conversion itself."""
    try:
        out = np.array(a, dtype=complex, order="C")
    except (TypeError, ValueError, OverflowError):
        raise InvariantError("entries must be a rectangular array of numbers, "
                             f"got {type(a).__name__}") from None
    if not np.isfinite(out).all():
        raise InvariantError("entries must be finite")
    return out


def _as_square(name, a, d):
    """`_as_complex(a)`, raising unless it is a d x d matrix; `name` names
    it in the message."""
    m = _as_complex(a)
    if m.shape != (d, d):
        raise InvariantError(f"{name} must be {d}x{d}, got shape {m.shape}")
    return m


def _check_hermitian_psd(m, atol, what):
    """Raise unless the finite square matrix m is Hermitian and positive
    semidefinite to atol; `what` names it in the message."""
    h = m.conj().T
    if np.abs(m - h).max() > atol:
        raise InvariantError(f"{what} is not Hermitian")
    if np.linalg.eigvalsh((m + h) / 2).min() < -atol:
        raise InvariantError(f"{what} is not positive semidefinite")


def _check_unit_rows(amps):
    """Raise unless each row (last axis) of the complex array amps has unit
    norm to ATOL; written so that a NaN or infinite entry fails.  A row's
    squared norm is one dot product: np.vdot for a single vector, and over
    each row of the real view for a batch."""
    if amps.ndim == 1:
        ok = abs(math.sqrt(np.vdot(amps, amps).real) - 1.0) <= ATOL
    else:
        rows = np.ascontiguousarray(amps).view(float)
        ok = np.abs(np.sqrt(np.einsum("...i,...i->...", rows, rows)) - 1.0).max() <= ATOL
    if not ok:
        raise InvariantError("state vector is not normalized")


def _row_norms(rows):
    """The Euclidean norm of each row of a (k, n) complex array, summed as
    np.linalg.norm sums one vector (one real and one imaginary dot product),
    so each norm has the bits of np.linalg.norm(row)."""
    flat = rows[:, None, :]
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)).reshape(-1)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a SystemShape (`_check_type`)."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_type("shape", self.shape, SystemShape)
        amps = _as_complex(self.amplitudes).reshape(-1)   # own copy
        if amps.size != self.shape.total_dim:
            raise InvariantError(
                f"amplitude vector has length {amps.size}, "
                f"shape needs {self.shape.total_dim}")
        _check_unit_rows(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def density(self):
        """|psi><psi| as a DensityMatrix."""
        return DensityMatrix(self.shape, np.outer(self.amplitudes,
                                                  self.amplitudes.conj()))

    def overlap(self, other):
        """<self|other> (complex); other a PureState (`_check_type`)."""
        _check_type("other", other, PureState)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def equals_up_to_phase(self, other):
        """Physical equality: |<self|other>| = 1 within ATOL; other a
        PureState (`_check_type`)."""
        _check_type("other", other, PureState)
        if self.shape != other.shape:
            return False
        return abs(abs(self.overlap(other)) - 1.0) <= ATOL


def _pure_states(shape, rows):
    """PureStates over shape, one per row of a (k, D) stack, with
    PureState's checks run once for the stack: an owned complex copy
    (`_as_complex`) of k rows of length D = shape.total_dim and unit norm
    (`_check_unit_rows`), made read-only; state i holds row i as a view
    (`_unchecked`)."""
    rows = _as_complex(rows)
    if rows.ndim != 2 or rows.shape[1] != shape.total_dim:
        raise InvariantError(f"amplitude rows have shape {rows.shape}, "
                             f"shape needs length {shape.total_dim}")
    _check_unit_rows(rows)
    rows.flags.writeable = False
    return tuple(_unchecked(PureState, shape=shape, amplitudes=row) for row in rows)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator over a
    SystemShape (`_check_type`)."""

    shape: SystemShape
    entries: np.ndarray
    symmetrize: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_type("shape", self.shape, SystemShape)
        m = _as_square("density matrix", self.entries, self.shape.total_dim)
        if self.symmetrize:
            # allowed only at construction from external input
            m = (m + m.conj().T) / 2
        _check_hermitian_psd(m, ATOL, "matrix")
        if abs(m.trace().real - 1.0) > ATOL:
            raise InvariantError("trace is not 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def eigensystem(self):
        """The support's eigenpairs (w, v): the eigenvalues above RANK_TOL,
        largest first, with v's columns their eigenvectors.  Equal
        eigenvalues keep deterministic_eigh's order and basis, so the
        result depends only on the input bits.  This is the one support
        rule: rank(), purify and locc.spectral_ensemble all read it.  A
        cluster whose eigenvalues are all at most RANK_TOL is discarded, so
        it is left as eigh returns it (`_settled_eigh`)."""
        w, v = _settled_eigh(self.entries, RANK_TOL)
        order = np.argsort(-w, kind="stable")  # descending, ties keep their order
        order = order[w[order] > RANK_TOL]
        return w[order], v[:, order]

    def rank(self):
        return len(self.eigensystem()[0])

    def purity(self):
        return float(np.trace(self.entries @ self.entries).real)


def _check_type(name, value, cls):
    """Raise unless value is an instance of cls (a state, channel or plan
    class, or a tuple of them); `name` names it in the message."""
    if not isinstance(value, cls):
        classes = cls if isinstance(cls, tuple) else (cls,)
        names = " or a ".join(c.__name__ for c in classes)
        raise InvariantError(f"{name} must be a {names}, "
                             f"got {type(value).__name__}")


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    without its __post_init__: for parts whose checks have already run
    once for a whole stack (`_pure_states`, `locc._stacked_protocols`)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# deterministic linear algebra helpers


def _fix_phases(vecs):
    """Rotate each column so its largest-magnitude entry is real positive.

    Leading axes are a batch; a zero column is returned unchanged.  The
    peak's magnitude is np.hypot of its parts, which rounds as the scalar
    abs() does (np.abs on an array does not always), so a column's bits do
    not depend on the batch it comes in.
    """
    out = np.array(vecs, dtype=complex)
    k = np.argmax(np.abs(out), axis=-2)[..., None, :]
    peak = np.take_along_axis(out, k, axis=-2)
    mag = np.hypot(peak.real, peak.imag)
    nonzero = mag > 0
    return np.divide(out, peak / np.where(nonzero, mag, 1.0), out=out,
                     where=nonzero)


def deterministic_eigh(h):
    """eigh with a reproducible choice of basis inside degenerate eigenspaces.

    A cluster is a run of ascending eigenvalues whose neighbouring gaps are
    all at most DEGENERACY_TOL; a gap that is larger or not finite ends it.
    Within each cluster of two or more the eigenvectors are re-diagonalized
    against the basis-index operator diag(0, 1, ..., D-1), ordered by
    ascending expectation of that operator, and phase-fixed.  The
    operator's matrix in the cluster is (block^H * pos) @ block, pos the
    float index vector scaling the columns of block^H, so no D x D
    diagonal matrix is built.  The same input bits always give the same
    basis.
    """
    return _settled_eigh(h, -math.inf)


def _settled_eigh(h, floor):
    """eigh with deterministic_eigh's rule applied to every cluster whose
    largest eigenvalue is above floor (a NaN counts as above).  The
    columns of the other clusters, all of whose eigenvalues are at most
    floor, are left as eigh returns them; each column's bits do not depend
    on them (`_fix_phases` fixes each column alone)."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    pos = np.arange(len(w), dtype=float)
    ends = np.flatnonzero(~(np.diff(w) <= DEGENERACY_TOL)) + 1
    first = len(w)      # the first column of a settled cluster
    for i, j in zip([0, *ends], [*ends, len(w)]):
        if w[j - 1] <= floor:
            continue
        first = min(first, i)
        if j - i > 1:
            block = v[:, i:j]
            b = (block.conj().T * pos) @ block
            # ascending <position> within the cluster
            v[:, i:j] = block @ np.linalg.eigh((b + b.conj().T) / 2)[1]
    v[:, first:] = _fix_phases(v[:, first:])
    return w, v


def _top_eigenvector(h):
    """The normalized top eigenvector of h's Hermitian part: the last
    column of deterministic_eigh, so a degenerate top eigenspace gets its
    tie-break, with PureState's checks (`_check_unit_rows`)."""
    top = deterministic_eigh((h + h.conj().T) / 2)[1][:, -1]
    # the norm along an axis, as for a stack of rows: np.linalg.norm of
    # the whole vector sums in another order, and a start one ulp away
    # can stop a search at another iteration
    top = top / np.linalg.norm(top, axis=-1)
    _check_unit_rows(top)
    return top


# ---------------------------------------------------------------------------
# operations


def tensor_product(a, b):
    """Kronecker product of two pure states or two density matrices.

    The result's shape is the concatenation of the operand shapes, in the
    fixed index ordering (left operand most significant).  a must be a
    PureState or a DensityMatrix and b of a's class (`_check_type`).
    """
    _check_type("a", a, (PureState, DensityMatrix))
    _check_type("b", b, type(a))
    if isinstance(a, PureState):
        return PureState(a.shape.concat(b.shape),
                         np.kron(a.amplitudes, b.amplitudes))
    return DensityMatrix(a.shape.concat(b.shape),
                         np.kron(a.entries, b.entries))


def _check_parties(shape, parties, name="party subset"):
    """The sorted party indices of a nonempty collection, as Python ints;
    each must be an integer (`_is_int`) in range and named once.  Anything
    but a collection is an InvariantError naming the argument as `name`."""
    try:
        parties = list(parties)
    except TypeError:
        raise InvariantError(f"{name} must be a collection of party indices, "
                             f"got {parties!r}") from None
    if not all(map(_is_int, parties)):
        raise InvariantError(f"party indices must be integers, got {parties!r}")
    # equal integers of any type are equal ints, so duplicates survive int()
    ints = sorted(map(int, parties))
    if len(set(ints)) != len(ints):
        raise InvariantError("party subset must list each party once")
    if not ints:
        raise InvariantError("party subset must be nonempty")
    if ints[0] < 0 or ints[-1] >= shape.n_parties:
        raise InvariantError(f"party index out of range for {shape.n_parties} parties")
    return ints


def partial_trace(rho, keep):
    """Trace out all parties not in `keep` (0-based indices).

    Kept parties retain their relative order.  Rows and columns are each
    unfolded across the cut keep|rest (`_unfold`), and the rest's block is
    traced once.  rho must be a DensityMatrix (`_check_type`).
    """
    _check_type("rho", rho, DensityMatrix)
    shape = rho.shape
    keep = tuple(_check_parties(shape, keep, "keep"))
    drop = tuple(k for k in range(shape.n_parties) if k not in keep)
    cols = _unfold(rho.entries.T, shape, keep, drop)          # [col, a, x]
    t = _unfold(cols.transpose(1, 2, 0), shape, keep, drop)   # [a, x, b, y]
    return DensityMatrix(SystemShape(tuple(shape.local_dims[k] for k in keep)),
                         np.trace(t, axis1=1, axis2=3))


def _sqrtm_psd(m):
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def distance(metric, a, b):
    """Distance/similarity between two density matrices of the same shape.

    trace:            (1/2) * sum of singular values of (a - b)
    hilbert_schmidt:  Frobenius norm of (a - b)
    fidelity:         Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2

    a or b not a DensityMatrix is an InvariantError naming it, checked
    first; so is a metric not one of the three names (`_check_choice`).
    """
    _check_type("a", a, DensityMatrix)
    _check_type("b", b, DensityMatrix)
    metric = _check_choice("metric", metric,
                           ("trace", "hilbert_schmidt", "fidelity"))
    if a.shape != b.shape:
        raise InvariantError("shape mismatch")
    diff = a.entries - b.entries
    if metric == "trace":
        return float(np.sum(np.linalg.svd(diff, compute_uv=False)) / 2)
    if metric == "hilbert_schmidt":
        return float(np.linalg.norm(diff))
    sa = _sqrtm_psd(a.entries)
    sv = np.linalg.svd(sa @ _sqrtm_psd(b.entries), compute_uv=False)
    return float(np.sum(sv) ** 2)


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Bipartite normal form sum_i lam_i |l_i>|r_i> across a cut."""

    coefficients: np.ndarray      # non-negative, descending, squares sum to 1
    left_basis: np.ndarray        # columns are |l_i>
    right_basis: np.ndarray       # columns are |r_i>
    left_parties: tuple
    right_parties: tuple

    def rank(self):
        return int(np.sum(self.coefficients > np.sqrt(RANK_TOL)))


def _cut_permutation(shape, cut):
    """(left, right, dl, dr) for a bipartition cut = (left, right): each
    side a sorted tuple of Python ints (`_check_parties`), every party on
    exactly one side, and dl, dr the sides' dimensions.  A cut that is not
    a pair of collections is an InvariantError too.  This is the one rule
    that orders a cut; `_unfold` and `_fold` lay amplitudes out by it.
    """
    try:
        left, right = cut
        left, right = list(left), list(right)
    except (TypeError, ValueError):   # not a pair, or a side not a collection
        raise InvariantError(
            f"cut must be a pair (left, right) of party collections, got {cut!r}"
        ) from None
    left = tuple(_check_parties(shape, left))
    right = tuple(_check_parties(shape, right))
    # both sides hold distinct parties in range, so they partition the
    # parties iff they are disjoint and n in all
    if len(left) + len(right) != shape.n_parties or not set(left).isdisjoint(right):
        raise InvariantError("cut must partition all parties into two nonempty groups")
    dims = shape.local_dims
    return (left, right, math.prod([dims[k] for k in left]),
            math.prod([dims[k] for k in right]))


def _unfold(amps, shape, left, right):
    """(..., D) amplitudes -> (..., dl, dr) matrices across the cut
    left|right, row index over the left parties and column index over the
    right ones, each big-endian in the given order.  Leading axes are a
    batch."""
    batch, dims, nb = amps.shape[:-1], shape.local_dims, amps.ndim - 1
    t = amps.reshape(*batch, *dims)
    t = t.transpose(*range(nb), *(nb + k for k in left + right))
    return t.reshape(*batch, math.prod(dims[k] for k in left), -1)


def _fold(mats, shape, left, right):
    """Inverse of `_unfold`: (..., dl, dr) -> (..., D) in party order."""
    batch, dims, nb = mats.shape[:-2], shape.local_dims, mats.ndim - 2
    perm = left + right
    t = mats.reshape(*batch, *(dims[k] for k in perm))
    t = t.transpose(*range(nb), *(nb + perm.index(k) for k in range(len(perm))))
    return t.reshape(*batch, -1)


def schmidt_decompose(psi, cut):
    """Schmidt decomposition of a pure state across a bipartition.

    cut is a pair (left_parties, right_parties) of disjoint index collections
    covering every party.  Each side is validated and sorted
    (`_cut_permutation`), and the decomposition is one SVD of the state's
    dl x dr unfolding (`_unfold`); the basis columns index each side's
    parties big-endian in ascending order, as `left_parties` and
    `right_parties` list them.  psi must be a PureState (`_check_type`).
    """
    _check_type("psi", psi, PureState)
    left, right, dl, dr = _cut_permutation(psi.shape, cut)
    u, s, vh = np.linalg.svd(_unfold(psi.amplitudes, psi.shape, left, right))
    r = min(dl, dr)
    # |psi> = sum_i s_i |u_i> (x) conj(v_i), and conj(v_i) = vh[i, :]
    return SchmidtForm(coefficients=s[:r].copy(),
                       left_basis=u[:, :r].copy(),
                       right_basis=vh[:r, :].T.copy(),
                       left_parties=left,
                       right_parties=right)


# ---------------------------------------------------------------------------
# canonical constructors


def basis_state(shape, index):
    """Computational basis state |index> (flat index) over shape, a
    SystemShape (`_check_type`); index an integer in [0, D - 1]
    (`_check_int`)."""
    _check_type("shape", shape, SystemShape)
    d = shape.total_dim
    index = _check_int("basis index", index, 0, d - 1)
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return PureState(shape, amps)


def ghz_state(n=3, d=2):
    """(|0...0> + ... + |d-1...d-1>)/sqrt(d) on n parties of dimension d.

    n and d are integers >= 1 (`_check_int`); below 2 either is an
    UnsupportedError.
    """
    n, d = _check_int("n", n, 1), _check_int("d", d, 1)
    if n < 2 or d < 2:
        raise UnsupportedError("GHZ needs n >= 2 parties of dimension >= 2")
    shape = SystemShape((d,) * n)
    amps = np.zeros(shape.total_dim, dtype=complex)
    stride = (shape.total_dim - 1) // (d - 1)  # index of |k,k,...,k> is k*stride
    amps[::stride] = 1 / np.sqrt(d)
    return PureState(shape, amps)


def w_state():
    """Three-qubit W state (|001> + |010> + |100>)/sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    return PureState(SystemShape((2, 2, 2)), amps)


def max_entangled(d):
    """Maximally entangled pair (1/sqrt(d)) sum_i |ii>: `ghz_state(2, d)`,
    with its checks (d an integer >= 1, and d = 1 an UnsupportedError)."""
    return ghz_state(2, d)


def _shape_argument(name, dims):
    """SystemShape(dims) for an argument that lists local dimensions;
    InvariantError naming it unless dims is a nonempty sequence of
    integers >= 1."""
    try:
        return SystemShape(dims)
    except InvariantError:
        raise InvariantError(f"{name} must be a nonempty sequence of integers "
                             f">= 1, got {dims!r}") from None


# each canonical kind's accepted spellings (after case folding), and the
# parameters it takes
_KIND_ALIASES = {"ghz": "ghz", "ghz_n": "ghz", "w": "w", "w3": "w",
                 "maxent": "maxent", "max_entangled": "maxent",
                 "maxentangled_d": "maxent", "z": "z", "basis": "basis"}
_KIND_PARAMS = {"ghz": ("n", "d"), "w": ("n", "d"), "maxent": ("d",),
                "z": ("n", "d", "p"), "basis": ("dims", "index")}


def canonical_state(kind, **params):
    """Dispatch constructor, the one owner of the named states: GHZ_n
    (`ghz`: n = 3, d = 2), W3 (`w`: n = 3, d = 2), MaxEntangled_d
    (`maxent`: d = 2), the W/GHZ mixture (`z`: n = 3, d = 2, p = 0.5, as
    `z_mixture(p)`) or Basis(index) (`basis`: dims and index, no
    defaults).

    kind is one of the spellings in _KIND_ALIASES, case folded; any other
    is an InvariantError naming the value given (`_check_choice`).  A
    parameter its kind does not take, and a basis state without its dims
    or index, is an InvariantError naming the parameter.  `w` and `z`
    check n and d (`_check_int`) and `z` its p (`_check_real`), then
    (n, d) other than (3, 2) is an UnsupportedError.
    """
    # every alias is lower case, so _check_choice sees only a kind that
    # folds to none of them, and raises
    kind = (_KIND_ALIASES.get(kind.lower() if isinstance(kind, str) else None)
            or _check_choice("kind", kind, _KIND_ALIASES))
    extra = sorted(set(params) - set(_KIND_PARAMS[kind]))
    if extra:
        raise InvariantError(f"{extra[0]} must not be given for a {kind} state")
    if kind == "ghz":
        return ghz_state(n=params.get("n", 3), d=params.get("d", 2))
    if kind == "maxent":
        return max_entangled(params.get("d", 2))
    if kind == "basis":
        for name in ("dims", "index"):
            if name not in params:
                raise InvariantError(f"{name} must be given for a basis state")
        return basis_state(_shape_argument("dims", params["dims"]), params["index"])
    n = _check_int("n", params.get("n", 3), 1)
    d = _check_int("d", params.get("d", 2), 1)
    p = _check_real("mixing weight p", params.get("p", 0.5), 0, 1)
    if (n, d) != (3, 2):
        raise UnsupportedError(f"kind {kind!r} is only implemented for 3 qubits")
    return w_state() if kind == "w" else z_mixture(p)


def z_mixture(p):
    """p |W><W| + (1-p) |GHZ><GHZ| on three qubits; p a finite real in
    [0, 1] (`_check_real`)."""
    p = _check_real("mixing weight p", p, 0, 1)
    w = w_state().amplitudes
    g = ghz_state().amplitudes
    m = p * np.outer(w, w.conj()) + (1 - p) * np.outer(g, g.conj())
    return DensityMatrix(SystemShape((2, 2, 2)), m)


def purify(rho, ancilla_dims):
    """Purify rho on an appended ancilla register.

    The ancilla components are the first rank(rho) computational basis
    states, paired with the support's eigenvectors in `eigensystem()`'s
    order, which is `locc.spectral_ensemble`'s: ancilla state mu
    conditions the system on ensemble element mu.  The ancilla parts of
    the purification are orthonormal by construction.
    ancilla_dims is a nonempty sequence of integers >= 1
    (`_shape_argument`), and rho a DensityMatrix (`_check_type`).
    """
    _check_type("rho", rho, DensityMatrix)
    ancilla = _shape_argument("ancilla_dims", ancilla_dims)
    w, v = rho.eigensystem()
    r = len(w)
    if ancilla.total_dim < r:
        raise InvariantError(
            f"ancilla dimension {ancilla.total_dim} below rank {r}")
    m = np.zeros((rho.shape.total_dim, ancilla.total_dim), dtype=complex)
    m[:, :r] = v * np.sqrt(w)
    psi = m.reshape(-1)  # system parties most significant, ancilla appended
    psi = psi / np.linalg.norm(psi)
    return PureState(rho.shape.concat(ancilla), psi)
