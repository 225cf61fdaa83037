"""Stationarity of the envelope objective and the guaranteed step sizes.

At the true parameters the Danskin envelope gradient of
Phi(g) = max_D F(g, D), the inner-maximum value that GDA descends, vanishes;
half a unit away it does not.  The quadrature-backed
tanh-moment inequalities that drive the uniqueness argument are evaluated
on a grid, and the conservative step-size formulas are printed for a small
feasible regime.
"""

import numpy as np

from gatgmm import (
    Anchors,
    GeneratorParams,
    GmmParams,
    condition1_check,
    gh_expect,
    stationarity_grad_norm,
    guaranteed_stepsizes,
)

mu_x = np.array([1.1, 0.4])
cov_x = np.diag([0.05, 0.07])
direction = mu_x / np.linalg.norm(mu_x)
holds, margin = condition1_check(mu_x, cov_x, direction)
print(f"separability along the mean direction: holds={holds}, margin={margin:.3f}")

truth = GmmParams.symmetric2(mu_x, cov_x)
anchors = Anchors.symmetric(direction, lam=8.0)
g_true = GeneratorParams(mode="symmetric2",
                         cov_factor=np.diag(np.sqrt(np.diag(cov_x))),
                         means=mu_x[None, :])
print("envelope gradient norm at the truth:",
      f"{stationarity_grad_norm(g_true, truth, anchors, tol_inner=1e-10):.2e}")

g_off = GeneratorParams(mode="symmetric2", cov_factor=g_true.cov_factor,
                        means=(mu_x + np.array([0.35, -0.35]))[None, :])
print("envelope gradient norm off the truth:",
      f"{stationarity_grad_norm(g_off, truth, anchors, tol_inner=1e-10):.3f}")

print("\ntanh-moment inequalities (sampled rows of the verification grid):")
print("  mu   std   mu*E[tanh]-mu^2*E[tanh']   2E[tanh'']+E[tanh''']")
for mu in (0.0, 0.5, 1.5, 3.0):
    for std in (0.5, 2.0):
        v1 = mu * gh_expect(mu, std, "tanh") - mu**2 * gh_expect(mu, std, "tanh_prime")
        v2 = 2 * gh_expect(mu, std, "tanh_pp") + gh_expect(mu, std, "tanh_ppp")
        print(f"  {mu:.2f}  {std:.1f}   {v1:+24.2e}   {v2:+20.2e}")

steps = guaranteed_stepsizes(lam=4.0, eta=1.0, k=2, max_anchor_normsq=1.0)
print("\nguaranteed step sizes for (lam=4, eta=1, k=2, max||d||^2=1):")
print(f"  ascent step   {steps.alpha_max:.6f}")
print(f"  descent step  {steps.alpha_min:.3e}")
print(f"  smoothness L  {steps.lipschitz}")
print(f"  condition no. {steps.kappa} (alternative convention {steps.kappa_alt})")
