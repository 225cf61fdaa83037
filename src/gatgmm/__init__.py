"""Adversarial minimax training for Gaussian mixtures, with an EM baseline,
closed-form Gaussian transport metrics, and optimal-transport verification
tools."""

from .datagen import make_isotropic
from .em import GmmParams, em_fit, gmm_loglik
from .gausscore import SeededRng
from .metrics import condition1_check, gmm_objective, principal_direction
from .model import GeneratorParams
from .objective import (Anchors, c_transform_batch, c_transform_upper_bound, gh_expect,
                        inner_max_solve)
from .optimizer import TrainConfig, guaranteed_stepsizes, stationarity_grad_norm, train_gda
from .transport import TransportPair, bayes_error, psi_map_batch, w2_1d_exact, w2_assignment_exact

__version__ = "0.1.0"
