"""A three-qubit mixture no local protocol can create, with evidence.

Mix the GHZ and W states: every decomposition of the result into two
pure states stays inside span{W, GHZ}, and every state in that span is
of W or GHZ entanglement class -- both genuinely tripartite.  But any
state produced from a pure precursor by local channels (even with
classical communication) admits a decomposition whose elements are
local-unitarily related, hence of a single class.  The certificate
checker formalizes this; the numerical search independently fails to
get anywhere near the target, while a genuinely noisy GHZ state (a
positive control) is matched to high precision.

How far from LC is the mixture z(p) = p W + (1 - p) GHZ?  Two explicit
LC states bound its fidelity to the LC set from below: amplitude damping
on each qubit of W, at fidelity (1 + p)/2, and damping towards |1> on
party 0 of a weighted GHZ state, at fidelity 1 - 2p/3.  So
F(z(p), LC) >= max((1 + p)/2, 1 - 2p/3), least 5/7 at p = 3/7.
"""

import numpy as np

from lcstates import (DensityMatrix, LCConfiguration, LocalChannel, PureState,
                      amplitude_damping_channel, apply_product_channel,
                      dephasing_channel, distance, ghz_state, identity_channel,
                      lc_distance_search, lccc_obstruction_check, w_state,
                      z_mixture)
from lcstates.channels import haar_isometry

rho = z_mixture(0.5)
cert = lccc_obstruction_check(rho)
print("verdict:", cert.verdict)
print("eigenvector classes:", sorted(c.label for c in cert.classes))

# the same state in another local frame: a local unitary changes no
# entanglement class, so the certificate must not change either
rng = np.random.default_rng(0)
ua, ub, uc = (haar_isometry(2, 2, rng) for _ in range(3))
u = np.kron(np.kron(ua, ub), uc)
rotated = DensityMatrix(rho.shape, u @ rho.entries @ u.conj().T,
                        symmetrize=True)
cert = lccc_obstruction_check(rotated)
print("locally rotated copy:", cert.verdict,
      sorted(c.label for c in cert.classes))

print("\nsearch residuals (trace distance):")
res = lc_distance_search(rho, restarts=4, max_iters=1500, master_seed=0)
print(f"  GHZ/W mixture (obstructed): {res.trace_distance:.4f}")

control = apply_product_channel(
    [dephasing_channel(2, 0.3), identity_channel(2), identity_channel(2)],
    ghz_state().density())
res = lc_distance_search(control, restarts=4, max_iters=1500, master_seed=0)
print(f"  dephased GHZ (reachable):   {res.trace_distance:.2e}")


def witnesses(p):
    """The two LC states near z(p): W with every qubit damped by
    gamma = (1 - p)/(1 + p), and sqrt(1 - b/2)|000> + sqrt(b/2)|111> with
    party 0 damped towards |1> by gamma = (1 - b)/(1 - b/2),
    b = 3(1 - p)/(3 - 2p)."""
    w = LCConfiguration(w_state(),
                        (amplitude_damping_channel((1 - p) / (1 + p)),) * 3)
    b = 3 * (1 - p) / (3 - 2 * p)
    flip = np.array([[0, 1], [1, 0]])
    damp = amplitude_damping_channel((1 - b) / (1 - b / 2))
    amps = np.zeros(8)
    amps[0], amps[7] = np.sqrt(1 - b / 2), np.sqrt(b / 2)
    g = LCConfiguration(PureState(w_state().shape, amps),
                        (LocalChannel(2, flip @ damp.kraus @ flip),
                         identity_channel(2), identity_channel(2)))
    return w.output(), g.output()


print("\nexplicit LC states near z(p) (F fidelity, T trace distance):")
for p in (0.1, 0.3, 0.5, 0.7, 0.9):
    z = z_mixture(p)
    near = [(distance("fidelity", z, s), distance("trace", z, s))
            for s in witnesses(p)]
    print(f"  p={p:.1f}  damped W: F={near[0][0]:.4f} T={near[0][1]:.4f}"
          f"   damped GHZ: F={near[1][0]:.4f} T={near[1][1]:.4f}"
          f"   F(z, LC) >= {max(f for f, _ in near):.4f}")
