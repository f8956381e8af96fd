"""Machine-speed reference used to normalise the benchmark's times.

On a shared 2-core host the same search took from 1.1 s to 1.9 s
depending on the minute it ran in, with CPU time equal to wall time, so
raw wall times of runs made minutes apart differ by more than any useful
regression bound.  A fixed kernel of the same kind of work as lcstates
does (complex tensor contractions over a (2,2,2) operator, 8 x 8
eigendecompositions, a thin SVD, small Python-level bookkeeping), which
calls no lcstates code, is timed before and after every pass and every
set-up.  Over 30-second windows the median pass time moved by 75% while
its ratio to this kernel's time moved by under 10%.

A normalised time is the measured time x NOMINAL_S / reference time: the
seconds the work would have taken had the reference kernel run in
NOMINAL_S.  Raw times are printed and recorded alongside.
"""

import time

import numpy as np

NOMINAL_S = 0.02
REPS = 120


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.rho = a @ a.conj().T
        self.kraus = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        self.iso = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))

    def _once(self):
        k = self.kraus
        t = self.rho.reshape(2, 2, 2, 2, 2, 2)
        for p in range(3):
            t = np.tensordot(k, t, axes=([2], [p]))
            t = np.moveaxis(t, 1, 1 + p)
            t = np.tensordot(t, k.conj(), axes=([0, 4 + p], [0, 2]))
            t = np.moveaxis(t, -1, 3 + p)
        m = t.reshape(8, 8)
        m = (m + m.conj().T) / 2
        w, _ = np.linalg.eigh(m)
        np.linalg.svd(self.iso, full_matrices=False)
        np.einsum("mij,mik->jk", k.conj(), k)
        return {"objective": float(np.linalg.norm(m - self.rho) ** 2),
                "spectrum": [float(x) for x in w]}

    def seconds(self):
        """Wall time of one fixed batch of reference work."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            self._once()
        return time.perf_counter() - t0
