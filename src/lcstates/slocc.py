"""Three-qubit entanglement classification.

A pure three-qubit state falls into exactly one of six classes under
stochastic local operations and classical communication: Product, one of
three biseparable classes, W, or GHZ.  Fully entangled states (all three
single-party marginals of rank 2) split into the W and GHZ classes by the
three-tangle, 4 |Hdet(a)| with Hdet the 2x2x2 Cayley hyperdeterminant of
the amplitude tensor: zero on the W class, positive on the GHZ class.
"""

from dataclasses import dataclass

import numpy as np

from .states import (RANK_TOL, InvariantError, PureState, UnsupportedError,
                     _check_type)

TANGLE_TOL = 1e-10

PRODUCT = "Product"
BISEPARABLE_A = "BiseparableA"
BISEPARABLE_B = "BiseparableB"
BISEPARABLE_C = "BiseparableC"
W_CLASS = "W"
GHZ_CLASS = "GHZ"


@dataclass(frozen=True)
class SloccClass:
    label: str

    def __post_init__(self):
        if self.label not in (PRODUCT, BISEPARABLE_A, BISEPARABLE_B,
                              BISEPARABLE_C, W_CLASS, GHZ_CLASS):
            raise InvariantError(f"unknown SLOCC label {self.label!r}")


def _require_three_qubits(psi):
    """Raise unless psi is a PureState of three qubits.  The type is
    checked first (`_check_type`, an InvariantError); a PureState of
    another shape is an UnsupportedError.  The CLI's classify and tangle
    rely on this check for their scope."""
    _check_type("psi", psi, PureState)
    if psi.shape.local_dims != (2, 2, 2):
        raise UnsupportedError("three-qubit pure states only")


def hyperdeterminant(a):
    """Cayley hyperdeterminant of a flat 8-vector a[ijk] (i most significant).

    Deg-4 polynomial:
      Hdet = a000^2 a111^2 + a001^2 a110^2 + a010^2 a101^2 + a100^2 a011^2
           - 2 (a000 a001 a110 a111 + a000 a010 a101 a111
              + a000 a100 a011 a111 + a001 a010 a101 a110
              + a001 a100 a011 a110 + a010 a100 a011 a101)
           + 4 (a000 a011 a101 a110 + a001 a010 a100 a111)
    """
    a = np.asarray(a, dtype=complex).reshape(8)
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    return (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
            + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2
            - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                   + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
                   + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
            + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))


def three_tangle(psi):
    """tau = 4 |Hdet(amplitudes)|, a local-unitary invariant in [0, 1]."""
    _require_three_qubits(psi)
    return float(4 * abs(hyperdeterminant(psi.amplitudes)))


def marginal_ranks(psi):
    """(r_A, r_B, r_C): ranks of the three single-party marginals.

    Party k's marginal has the squared singular values of the 2 x 4
    unfolding across the cut k|rest for eigenvalues, so the ranks are the
    counts of s^2 > RANK_TOL over one stacked SVD.  Each unfolding puts
    party k's axis first and the other two after it in ascending order, as
    `states._unfold` lays out the cut.
    """
    _require_three_qubits(psi)
    t = psi.amplitudes.reshape(2, 2, 2)
    unfoldings = np.array([t.reshape(2, 4), t.transpose(1, 0, 2).reshape(2, 4),
                           t.transpose(2, 0, 1).reshape(2, 4)])
    s = np.linalg.svd(unfoldings, compute_uv=False)
    return tuple(int(r) for r in (s ** 2 > RANK_TOL).sum(axis=-1))


def classify_three_qubit(psi):
    """Assign the SLOCC class of a pure three-qubit state.

    All marginal ranks 1 -> Product; exactly one rank 1 -> the matching
    biseparable class; all ranks 2 -> GHZ if tau > TANGLE_TOL else W.
    Near-threshold states classify as GHZ: the W class is a measure-zero
    boundary, and a false W would invalidate downstream certificates.
    """
    ranks = marginal_ranks(psi)
    ones = ranks.count(1)
    if ones == 3:
        return SloccClass(PRODUCT)
    if ones == 2:
        raise InvariantError(
            "two rank-1 marginals are impossible for a normalized state; "
            "input is numerically corrupted")
    if ones == 1:
        label = (BISEPARABLE_A, BISEPARABLE_B, BISEPARABLE_C)[ranks.index(1)]
        return SloccClass(label)
    tau = three_tangle(psi)
    return SloccClass(GHZ_CLASS if tau > TANGLE_TOL else W_CLASS)
