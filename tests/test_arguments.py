"""Bad arguments to public entries raise InvalidInput (a GatgmmError), never
numpy's ValueError, a silent nan or a RuntimeWarning."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gatgmm.datagen import Dataset, make_isotropic
from gatgmm.em import GmmParams, em_fit, gmm_loglik
from gatgmm.errors import GatgmmError, InvalidInput
from gatgmm.gausscore import SeededRng
from gatgmm.metrics import (
    bures_w2,
    condition1_check,
    gmm_objective,
    gmm_objective_orthant,
    principal_direction,
)
from gatgmm.model import (
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    disc_grad_x,
    disc_value,
    disc_value_batch,
    draw_latents,
    gen_sample_batch,
)
from gatgmm.objective import (
    Anchors,
    SampleMoments,
    c_transform,
    c_transform_batch,
    c_transform_upper_bound,
    inner_max_solve,
    minimax_value_and_grads,
)
from gatgmm.optimizer import TrainConfig, stationarity_grad_norm, train_gda
from gatgmm.transport import (
    TransportPair,
    bayes_error,
    duality_gap_1d,
    posterior,
    posterior_batch,
    psi_map,
    psi_map_batch,
    sample_mixture,
    w2_1d_exact,
    w2_assignment_exact,
)

D = 2
TRUTH = GmmParams.symmetric2(np.array([1.0, 0.5]), 0.1 * np.eye(D))
PAIR = TransportPair.build(TRUTH, GmmParams.symmetric2(np.array([0.8, 0.4]), 0.2 * np.eye(D)))
GEN = GeneratorParams(mode=SYMMETRIC2, cov_factor=0.3 * np.eye(D), means=[[0.5, 0.2]])
CRITIC = DiscriminatorParams(quad=0.1 * np.eye(D), consts=np.zeros(4),
                             logits=0.1 * np.array([[1.0, 0.0], [0.0, 1.0],
                                                    [-1.0, 0.0], [0.0, -1.0]]))
ANCHORS = Anchors.symmetric(np.array([1.0, 0.0]), lam=50.0)
Z = np.random.default_rng(0).standard_normal((6, D))
LABELS = np.array([1, -1, 1, -1, 1, -1])
NAN_Z = np.where(np.eye(6, D, dtype=bool), np.nan, Z)
XS = np.random.default_rng(1).standard_normal((40, D)) + 1.0

# every public entry that takes a sample batch or one point, with it as the argument
ENTRIES = {
    "Dataset": lambda xs: Dataset(xs),
    "gmm_loglik": lambda xs: gmm_loglik(TRUTH, xs),
    "em_fit": lambda xs: em_fit(xs, 2, max_iters=3),
    "disc_value_batch": lambda xs: disc_value_batch(CRITIC, xs),
    "SampleMoments": SampleMoments,
    "c_transform_batch": lambda xs: c_transform_batch(CRITIC, xs),
    "c_transform_upper_bound": lambda xs: c_transform_upper_bound(CRITIC, ANCHORS, xs, 0.9),
    "minimax_value_and_grads": lambda xs: minimax_value_and_grads(GEN, CRITIC, ANCHORS, xs, Z,
                                                                  LABELS),
    "train_gda": lambda xs: train_gda(xs, TrainConfig(max_iters=1, lam=50.0), ANCHORS),
    "stationarity_grad_norm": lambda xs: stationarity_grad_norm(GEN, xs, ANCHORS),
    "gmm_objective_orthant": lambda xs: gmm_objective_orthant(TRUTH, xs, np.array([1.0, 0.0])),
    "principal_direction": principal_direction,
    "posterior_batch": lambda xs: posterior_batch(TRUTH, xs),
    "psi_map_batch": lambda xs: psi_map_batch(PAIR, xs),
    "w2_assignment_exact": lambda xs: w2_assignment_exact(xs, xs),
    "disc_value": lambda x: disc_value(CRITIC, x),
    "disc_grad_x": lambda x: disc_grad_x(CRITIC, x),
    "c_transform": lambda x: c_transform(CRITIC, x),
    "posterior": lambda x: posterior(TRUTH, x),
    "psi_map": lambda x: psi_map(PAIR, x),
}

_BATCHES = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                  elements=st.sampled_from([0.0, 1.0, -0.5, 2.0, np.nan, np.inf, -np.inf]))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(xs=_BATCHES)
def test_batch_argument_returns_or_raises_a_typed_error(entry, xs):
    # 0-D to 3-D, zero rows, any width, nan and inf entries
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ENTRIES[entry](xs)
        except GatgmmError:
            pass


# each case leaked an untyped error, returned nan or ran before these checks
CASES = {
    "gmm_loglik width": lambda: gmm_loglik(TRUTH, np.ones((5, 3))),
    "posterior_batch width": lambda: posterior_batch(TRUTH, np.ones((5, 3))),
    "psi_map_batch width": lambda: psi_map_batch(PAIR, np.ones((5, 3))),
    "gmm_objective_orthant width": lambda: gmm_objective_orthant(TRUTH, np.ones((40, 3)),
                                                                 np.ones(2)),
    "posterior_batch nan": lambda: posterior_batch(TRUTH, [[np.nan, 0.0]]),
    "w2_assignment_exact nan": lambda: w2_assignment_exact([[np.nan, 0.0]], [[0.0, 0.0]]),
    "Dataset 3-D": lambda: Dataset(np.ones((2, 3, 2))),
    "SampleMoments no rows": lambda: SampleMoments(np.ones((0, 2))),
    "gmm_loglik no rows": lambda: gmm_loglik(TRUTH, np.ones((0, 2))),
    "principal_direction no rows": lambda: principal_direction(np.ones((0, 2))),
    "em_fit strings": lambda: em_fit([["a", "b"], ["c", "d"]], 2),
    "logit width": lambda: DiscriminatorParams(quad=np.eye(2), logits=np.ones((4, 3)),
                                               consts=np.zeros(4)),
    "nan logits": lambda: DiscriminatorParams(quad=np.eye(2), logits=np.full((4, 2), np.nan),
                                              consts=np.zeros(4)),
    "inf consts": lambda: DiscriminatorParams(quad=np.eye(2), logits=np.ones((4, 2)),
                                              consts=[0.0, 0.0, np.inf, 0.0]),
    "tied_symmetric lengths": lambda: DiscriminatorParams.tied_symmetric(
        np.eye(2), np.ones(2), np.ones(3)),
    "from_free lengths": lambda: DiscriminatorParams.from_free(
        np.eye(2), [np.ones(2), np.ones(3)], np.zeros(4), tied=True),
    "gmm_objective mean": lambda: gmm_objective(TRUTH, np.ones(3), np.eye(2)),
    "gmm_objective cov": lambda: gmm_objective(TRUTH, np.ones(2), np.eye(3)),
    "bures_w2 shapes": lambda: bures_w2(np.ones(2), np.eye(2), np.ones(3), np.eye(3)),
    "condition1 direction": lambda: condition1_check(np.ones(2), np.eye(2), np.ones(3)),
    "w2_1d_exact nan": lambda: w2_1d_exact([0.0, np.nan], [0.0, 1.0]),
    "bayes_error n_mc": lambda: bayes_error(TRUTH, 10.5, SeededRng(0)),
    "disc_value scalar": lambda: disc_value(CRITIC, 0.5),
    "posterior scalar": lambda: posterior(TRUTH, 0.5),
    "GmmParams nan weight": lambda: GmmParams([np.nan, 0.5], np.eye(D), np.eye(D)),
    "GmmParams nan mean": lambda: GmmParams([0.5, 0.5], [[np.nan, 0.0], [0.0, 1.0]], np.eye(D)),
    "GmmParams string covariance": lambda: GmmParams([0.5, 0.5], np.eye(D), "abc"),
    "GmmParams inf covariance": lambda: GmmParams([0.5, 0.5], np.eye(D),
                                                  [np.eye(D), [[np.inf, 0.0], [0.0, 1.0]]]),
    "minimax_value_and_grads nan latents": lambda: minimax_value_and_grads(
        GEN, CRITIC, ANCHORS, np.ones((5, D)), NAN_Z, LABELS),
    "inner_max_solve nan latents": lambda: inner_max_solve(GEN, np.ones((5, D)), ANCHORS,
                                                           z_eval=NAN_Z, labels=LABELS),
    "em_fit k 0": lambda: em_fit(XS, 0),
    "em_fit k -1": lambda: em_fit(XS, -1),
    "em_fit k 2.5": lambda: em_fit(XS, 2.5),
    "em_fit max_iters 2.5": lambda: em_fit(XS, 2, max_iters=2.5),
    "sample_mixture n -1": lambda: sample_mixture(TRUTH, -1, SeededRng(0)),
    "duality_gap_1d n_pairs 2.5": lambda: duality_gap_1d(2.0, 1.0, 2.3, 0.8, n_pairs=2.5),
    "duality_gap_1d grid_points 2.5": lambda: duality_gap_1d(2.0, 1.0, 2.3, 0.8,
                                                             grid_points=2.5),
    "make_isotropic d 2.5": lambda: make_isotropic(d=2.5),
    "make_isotropic n 2.5": lambda: make_isotropic(n=2.5),
    "gen_sample_batch n 2.5": lambda: gen_sample_batch(GEN, 2.5, SeededRng(0)),
    "draw_latents n 2.5": lambda: draw_latents(GEN, 2.5, SeededRng(0)),
    "condition1 nan direction": lambda: condition1_check(np.ones(2), np.eye(2), [np.nan, 1.0]),
    "gmm_objective_orthant inf direction": lambda: gmm_objective_orthant(TRUTH, XS,
                                                                         [np.inf, 0.0]),
    "train_gda lam mismatch": lambda: train_gda(XS, TrainConfig(max_iters=1), ANCHORS),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_is_invalid_input(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a nan result with a RuntimeWarning fails too
        with pytest.raises(InvalidInput):
            CASES[case]()
