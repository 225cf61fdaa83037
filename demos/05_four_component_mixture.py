"""Training a four-component shared-covariance mixture (general mode).

The generator keeps one covariance factor and four means; the
discriminator gets eight logit rows with trainable constants, anchored to
the top empirical eigenvectors in opposite-sign pairs.  Quality is scored
by the exact small-sample assignment cost between fresh model samples and
held-out data.
"""

import numpy as np

from gatgmm import Anchors, SeededRng, TrainConfig, train_gda, w2_assignment_exact
from gatgmm.datagen import make_k_mixture
from gatgmm.model import gen_sample_batch

d, k = 6, 4
means = np.array([
    [4.0, 0.0, 0, 0, 0, 0],
    [-4.0, 0.0, 0, 0, 0, 0],
    [0.0, 4.0, 0, 0, 0, 0],
    [0.0, -4.0, 0, 0, 0, 0],
])
ds = make_k_mixture(d=d, k=k, means=means, seed=2)  # the kmix cov 0.05 I, n = 640
print(f"dataset: {ds.n} samples, {k} components in {d} dimensions")

anchors = Anchors.from_data(ds.samples, k, lam=0.5)

cfg = TrainConfig(max_iters=20000, lr_gen=2e-2, lr_disc=1e-1, lam=0.5, seed=2,
                  eval_every=5000, sigma_init=0.1, mode="shared_cov", k=k)
report = train_gda(ds, cfg, anchors)
for rec in report.iterates:
    print(f"  iter {rec.iteration:5d}  objective {rec.objective:+.4f}")

g = report.final_gen
print("\nfitted means (rows; the four-component fit keeps some bias,")
print("the mean norms approach the target 4 from below):")
print(np.round(g.means, 2))

model_pts = gen_sample_batch(g, 64, SeededRng(99))
data_pts = ds.samples[:64]
print(f"\nassignment cost model vs data (64 points): "
      f"{w2_assignment_exact(model_pts, data_pts):.4f}")
print(f"assignment cost data vs data (baseline):   "
      f"{w2_assignment_exact(ds.samples[64:128], data_pts):.4f}")
