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
"""

import numpy as np

from lcstates import (DensityMatrix, apply_product_channel, dephasing_channel,
                      ghz_state, identity_channel, lc_distance_search,
                      lccc_obstruction_check, z_mixture)
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
