"""The exact inner maximization and its two-block decomposition.

For a fixed generator the discriminator maximization splits into a
closed-form quadratic block (the second-moment mismatch
||Sx - Sg||^2 / (8 lam), reported as l1) and a strongly concave logit block
solved by gradient ascent (l2).  Their sum, the total, is the objective F at
the maximizing discriminator.  Both blocks are nonnegative and vanish
exactly when the generator matches the data.
The c-transform of a smooth discriminator is also computed by ascent and
compared against its regularized upper bound.
"""

import numpy as np

from gatgmm import Anchors, GeneratorParams, c_transform, inner_max_solve, c_transform_upper_bound
from gatgmm.model import DiscriminatorParams, gen_apply, gen_second_moment
from gatgmm.objective import c_transform_batch

rng = np.random.default_rng(0)
d = 2
g = GeneratorParams(mode="symmetric2", cov_factor=np.diag([0.3, 0.2]),
                    means=np.array([[1.0, 0.4]]))

# data drawn from the generator itself: the optimum is exactly zero
z = rng.standard_normal((400, d))
labels = rng.integers(0, 2, 400) * 2 - 1
xs = gen_apply(g, z, labels)
lam = float(np.mean(np.sum(xs**2, axis=1)) + np.trace(gen_second_moment(g))) + 1.0
anchors = Anchors.symmetric(np.array([0.9, 0.3]), lam=lam)

dd, val = inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-10)
print(f"matched batches: total {val.total:.2e} = l1 {val.l1:.2e} + l2 {val.l2:.2e}")
print(f"optimal logit rows sit on the anchors: "
      f"{np.allclose(dd.logits[0], anchors.d_vecs[0], atol=1e-8)}")

# now against mismatched data: both blocks pick up positive value
xs_far = xs * 1.3 + 0.2
dd2, val2 = inner_max_solve(g, xs_far, anchors, tol=1e-10)
print(f"\nmismatched data: total {val2.total:.4f} = l1 {val2.l1:.4f} + l2 {val2.l2:.4f}")

# c-transform of a smooth quadratic discriminator has a closed form in 1-D
a = 0.5
dd_1d = DiscriminatorParams(quad=np.array([[a]]), logits=np.zeros((4, 1)),
                            consts=np.zeros(4))
x = 1.3
print(f"\nc-transform check (1-D quadratic, slope {a}): "
      f"ascent {c_transform(dd_1d, np.array([x])):.6f} vs closed form "
      f"{a * x**2 / (2 * (1 - a)):.6f}")

# the regularized upper bound dominates the mean c-transform
xs2 = rng.standard_normal((200, 2))
quad = 0.1 * np.eye(2)
b = 0.2 * rng.standard_normal((4, 2))
dd3 = DiscriminatorParams(quad=quad, logits=b, consts=np.zeros(4))
anchors3 = Anchors(d_vecs=0.2 * rng.standard_normal((2, 2)), e_consts=np.zeros(2), lam=1.0)
mean_ct = float(np.mean(c_transform_batch(dd3, xs2)))
bound = c_transform_upper_bound(dd3, anchors3, xs2, eta=0.9)
print(f"mean c-transform {mean_ct:.4f} <= regularized bound {bound:.4f}: "
      f"{mean_ct <= bound}")
