import numpy as np
import pytest

from lcstates import (InvariantError, PureState, SystemShape, basis_state,
                      classify_three_qubit, ghz_state, marginal_ranks,
                      max_entangled, partial_trace, tensor_product,
                      three_tangle, w_state)
from lcstates.slocc import hyperdeterminant
from conftest import random_pure, random_unitary

Q3 = SystemShape((2, 2, 2))


def _local_op(a, b, c):
    return np.kron(np.kron(a, b), c)


class TestThreeTangle:
    def test_ghz(self):
        # oracle: evaluate the degree-4 polynomial on (1/sqrt2,0,...,0,1/sqrt2)
        a = np.zeros(8); a[0] = a[7] = 1 / np.sqrt(2)
        assert abs(hyperdeterminant(a) - 0.25) < 1e-12
        assert three_tangle(ghz_state()) == pytest.approx(1, abs=1e-10)

    def test_w(self):
        a = np.zeros(8); a[[1, 2, 4]] = 1 / np.sqrt(3)
        assert abs(hyperdeterminant(a)) < 1e-12
        assert three_tangle(w_state()) == pytest.approx(0, abs=1e-10)

    def test_product(self, rng):
        psi = tensor_product(tensor_product(basis_state(SystemShape((2,)), 0),
                                            basis_state(SystemShape((2,)), 1)),
                             basis_state(SystemShape((2,)), 0))
        assert three_tangle(psi) == pytest.approx(0, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        for base in (ghz_state(), w_state()):
            tau0 = three_tangle(base)
            for _ in range(100):
                op = _local_op(*(random_unitary(2, rng) for _ in range(3)))
                rotated = PureState(Q3, op @ base.amplitudes)
                assert abs(three_tangle(rotated) - tau0) < 1e-9

    def test_wrong_shape(self):
        with pytest.raises(InvariantError):
            three_tangle(max_entangled(2))


class TestMarginalRanks:
    def test_ghz(self):
        assert marginal_ranks(ghz_state()) == (2, 2, 2)

    def test_zero_tensor_bell(self):
        psi = tensor_product(basis_state(SystemShape((2,)), 0), max_entangled(2))
        assert marginal_ranks(psi) == (1, 2, 2)

    def test_product(self):
        assert marginal_ranks(basis_state(Q3, 0)) == (1, 1, 1)

    def test_matches_partial_trace_ranks(self, rng):
        # GHZ and W under local GL and local unitaries, products, the
        # three biseparable cuts and Haar states: the ranks from one SVD of
        # the unfoldings equal the ranks of the partial-trace marginals
        def amps(*dims):
            return random_pure(SystemShape(dims), rng).amplitudes

        def gl():
            return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

        states = []
        for _ in range(20):
            for base in (ghz_state(), w_state()):
                for op in (_local_op(gl(), gl(), gl()),
                           _local_op(*(random_unitary(2, rng) for _ in range(3)))):
                    v = op @ base.amplitudes
                    states.append(v / np.linalg.norm(v))
            a, bc = amps(2), amps(2, 2)
            states.append(np.kron(np.kron(amps(2), amps(2)), amps(2)))
            states.append(np.kron(a, bc))
            states.append(np.kron(bc, a))
            states.append(np.kron(a, bc).reshape(2, 2, 2).transpose(1, 0, 2).reshape(-1))
            states.append(random_pure(Q3, rng).amplitudes)
        seen = set()
        for v in states:
            psi = PureState(Q3, v)
            expect = tuple(partial_trace(psi.density(), {k}).rank() for k in range(3))
            assert marginal_ranks(psi) == expect
            seen.add(expect)
        assert seen == {(2, 2, 2), (1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2)}


class TestClassify:
    def test_w_ghz_disjoint(self):
        cw = classify_three_qubit(w_state())
        cg = classify_three_qubit(ghz_state())
        assert cw.label == "W"
        assert cg.label == "GHZ"
        assert cw != cg

    def test_biseparable_a(self):
        psi = tensor_product(basis_state(SystemShape((2,)), 0), max_entangled(2))
        assert classify_three_qubit(psi).label == "BiseparableA"

    def test_biseparable_c(self):
        amps = np.zeros(8); amps[[0, 6]] = 1 / np.sqrt(2)  # (|000>+|110>)/sqrt2
        assert classify_three_qubit(PureState(Q3, amps)).label == "BiseparableC"

    def test_product(self):
        assert classify_three_qubit(basis_state(Q3, 5)).label == "Product"

    def test_slocc_invariance(self, rng):
        # invertible local ops with bounded condition number, then renormalize
        reps = {"GHZ": ghz_state(), "W": w_state()}
        for label, base in reps.items():
            hits = 0
            for _ in range(100):
                ops = []
                for _ in range(3):
                    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    if np.linalg.cond(m) > 1e3:
                        continue
                    ops.append(m)
                if len(ops) != 3:
                    continue
                v = _local_op(*ops) @ base.amplitudes
                psi = PureState(Q3, v / np.linalg.norm(v))
                assert classify_three_qubit(psi).label == label
                hits += 1
            assert hits > 50

    def test_wrong_shape(self):
        with pytest.raises(InvariantError):
            classify_three_qubit(max_entangled(2))
