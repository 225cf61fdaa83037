"""Transport maps between mixtures and the one-dimensional duality sandwich.

Builds the randomized per-component affine map and its posterior-averaged
deterministic version between two symmetric mixtures, checks the
pushforward empirically, and then runs the desk-scale duality experiment:
a surrogate dual value built from the integrated map must stay below the
exact empirical transport cost, with a gap controlled by the Bayes error.
"""

import numpy as np

from gatgmm import GmmParams, SeededRng, TransportPair, bayes_error, psi_map_batch, w2_1d_exact
from gatgmm.transport import duality_gap_1d, sample_mixture

# a well-separated source and a shifted, tighter target (1-D)
source = GmmParams.symmetric2(np.array([3.0]), np.array([[1.0]]))
target = GmmParams.symmetric2(np.array([4.0]), np.array([[0.64]]))
tp = TransportPair.build(source, target)
print("conversion factors per component:", [float(g[0, 0]) for g in tp.gammas])

print("\nthe deterministic map sends source means near target means:")
for x in (-3.0, 0.0, 3.0):
    print(f"  psi({x:+.1f}) = {psi_map_batch(tp, [[x]])[0, 0]:+.4f}")

n = 50000
xs, labels = sample_mixture(source, n, SeededRng(0))
moved = psi_map_batch(tp, xs)
for i, sign in enumerate((+1, -1)):
    sel = labels == i
    print(f"  component {i}: pushed mean {moved[sel].mean():+.4f} "
          f"(target {sign * 4.0:+.1f})")

pe = bayes_error(source, 100000, SeededRng(1))
print(f"\nBayes error of the source mixture: {pe:.5f}")

print("\nduality sandwich as separation grows (gap shrinks with Bayes error):")
print("  sep   dual value   empirical W2   gap       error bound")
for sep in (2.0, 3.0, 4.0, 5.0):
    res = duality_gap_1d(sep, 1.0, sep + 0.3, 0.8, seed=7)
    print(f"  {sep:.0f}    {res.dual:9.4f}    {res.w2:9.4f}   {res.gap:8.4f}  "
          f"{res.bound:9.3f}")
