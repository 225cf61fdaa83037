"""Bad arguments to public entries raise InvalidInput (a GatgmmError), never
numpy's ValueError, a silent nan or a RuntimeWarning."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gatgmm.datagen import Dataset, make_isotropic, make_k_mixture
from gatgmm.em import GmmParams, em_fit, gmm_loglik
from gatgmm.errors import GatgmmError, InvalidInput
from gatgmm.gausscore import SeededRng, as_gaussian, random_orthogonal, sym_eigen
from gatgmm.metrics import (
    bures_w2,
    condition1_check,
    gmm_objective,
    gmm_objective_orthant,
    principal_direction,
)
from gatgmm.model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    check_latents,
    disc_grad_x_batch,
    disc_value_batch,
    draw_latents,
    gen_apply,
    gen_sample_batch,
)
from gatgmm.objective import (
    Anchors,
    BatchGame,
    GeneratorMoments,
    SampleMoments,
    c_transform_batch,
    c_transform_upper_bound,
    gh_expect,
    inner_max_solve,
    l1_value,
    minimax_value_and_grads,
    penalty_value,
)
from gatgmm.optimizer import (
    TrainConfig,
    guaranteed_stepsizes,
    init_params,
    project_to_feasible,
    stationarity_grad_norm,
    train_gda,
)
from gatgmm.transport import (
    TransportPair,
    bayes_error,
    duality_gap_1d,
    duality_gap_bound_terms,
    posterior_batch,
    psi_map_batch,
    psi_randomized,
    sample_mixture,
    w2_1d_exact,
    w2_assignment_exact,
)

D = 2
TRUTH = GmmParams.symmetric2(np.array([1.0, 0.5]), 0.1 * np.eye(D))
PAIR = TransportPair.build(TRUTH, GmmParams.symmetric2(np.array([0.8, 0.4]), 0.2 * np.eye(D)))
GEN = GeneratorParams(mode=SYMMETRIC2, cov_factor=0.3 * np.eye(D), means=[[0.5, 0.2]])
KGEN = GeneratorParams(mode=SHARED_COV, cov_factor=np.eye(D), means=np.ones((3, D)))
CRITIC = DiscriminatorParams(quad=0.1 * np.eye(D), consts=np.zeros(4),
                             logits=0.1 * np.array([[1.0, 0.0], [0.0, 1.0],
                                                    [-1.0, 0.0], [0.0, -1.0]]))
ANCHORS = Anchors.symmetric(np.array([1.0, 0.0]), lam=50.0)
Z = np.random.default_rng(0).standard_normal((6, D))
LABELS = np.array([1, -1, 1, -1, 1, -1])
NAN_Z = np.where(np.eye(6, D, dtype=bool), np.nan, Z)
XS = np.random.default_rng(1).standard_normal((40, D)) + 1.0

# every public entry that takes a sample batch, with it as the argument
ENTRIES = {
    "Dataset": lambda xs: Dataset(xs),
    "gmm_loglik": lambda xs: gmm_loglik(TRUTH, xs),
    "em_fit": lambda xs: em_fit(xs, 2, max_iters=3),
    "disc_value_batch": lambda xs: disc_value_batch(CRITIC, xs),
    "disc_grad_x_batch": lambda xs: disc_grad_x_batch(CRITIC, xs),
    "SampleMoments": SampleMoments,
    "Anchors.from_data": lambda xs: Anchors.from_data(xs, 3, 1.0),
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
    "disc_value scalar": lambda: disc_value_batch(CRITIC, 0.5),
    "posterior scalar": lambda: posterior_batch(TRUTH, 0.5),
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
    "duality_gap_1d sigma_src bool": lambda: duality_gap_1d(2.0, True, 2.3, 0.8),
    "duality_gap_1d sigma_tgt string": lambda: duality_gap_1d(2.0, 1.0, 2.3, "0.8"),
    "make_isotropic d 2.5": lambda: make_isotropic(d=2.5),
    "make_isotropic n 2.5": lambda: make_isotropic(n=2.5),
    "gen_sample_batch n 2.5": lambda: gen_sample_batch(GEN, 2.5, SeededRng(0)),
    "draw_latents n 2.5": lambda: draw_latents(GEN, 2.5, SeededRng(0)),
    "condition1 nan direction": lambda: condition1_check(np.ones(2), np.eye(2), [np.nan, 1.0]),
    "gmm_objective_orthant inf direction": lambda: gmm_objective_orthant(TRUTH, XS,
                                                                         [np.inf, 0.0]),
    "train_gda lam mismatch": lambda: train_gda(XS, TrainConfig(max_iters=1), ANCHORS),
    "Anchors lam string": lambda: Anchors.symmetric(np.ones(D), lam="2"),
    "Anchors lam bool": lambda: Anchors.symmetric(np.ones(D), lam=True),
    "Anchors lam inf": lambda: Anchors.symmetric(np.ones(D), lam=float("inf")),
    "em_fit tol string": lambda: em_fit(XS, 2, tol="x"),
    "em_fit tol nan": lambda: em_fit(XS, 2, tol=np.nan),
    "em_fit tol negative": lambda: em_fit(XS, 2, tol=-1.0),
    "gh_expect mean string": lambda: gh_expect("0", 1.0, "tanh"),
    "gh_expect std string": lambda: gh_expect(0.0, "1", "tanh"),
    "gh_expect mean nan": lambda: gh_expect(np.nan, 1.0, "tanh"),
    "gh_expect std inf": lambda: gh_expect(0.0, np.inf, "tanh"),
    "c_transform_upper_bound eta nan": lambda: c_transform_upper_bound(CRITIC, ANCHORS, XS,
                                                                       np.nan),
    "c_transform_upper_bound eta string": lambda: c_transform_upper_bound(CRITIC, ANCHORS, XS,
                                                                          "0.9"),
    "project_to_feasible eta string": lambda: project_to_feasible(GEN, "a"),
    "guaranteed_stepsizes lam string": lambda: guaranteed_stepsizes("4", 1.0, 2, 1.0),
    "guaranteed_stepsizes lam inf": lambda: guaranteed_stepsizes(np.inf, 1.0, 2, 1.0),
    "guaranteed_stepsizes k 2.5": lambda: guaranteed_stepsizes(4.0, 1.0, 2.5, 1.0),
    "guaranteed_stepsizes normsq nan": lambda: guaranteed_stepsizes(4.0, 1.0, 2, np.nan),
    "guaranteed_stepsizes normsq negative": lambda: guaranteed_stepsizes(4.0, 1.0, 2, -100.0),
    "init_params d 2.5": lambda: init_params(2.5, SYMMETRIC2, 0.1, SeededRng(0)),
    "random_orthogonal d 2.5": lambda: random_orthogonal(2.5, SeededRng(0)),
    "train_gda truth string": lambda: train_gda(XS, TrainConfig(max_iters=0, lam=50.0), ANCHORS,
                                                truth="x"),
    "train_gda truth width": lambda: train_gda(
        XS, TrainConfig(max_iters=0, lam=50.0), ANCHORS,
        truth=GmmParams.symmetric2(np.ones(3), np.eye(3))),
    "l1_value width": lambda: l1_value(GEN, np.eye(3), 1.0),
    "l1_value one row": lambda: l1_value(GEN, np.ones((1, D)), 1.0),
    "l1_value nan": lambda: l1_value(GEN, np.full((D, D), np.nan), 1.0),
    "SeededRng seed 1.5": lambda: SeededRng(1.5),
    "SeededRng seed string": lambda: SeededRng("a"),
    "SeededRng stream 1.5": lambda: SeededRng(0, stream=1.5),
    "SeededRng split 2.7": lambda: SeededRng(0).split(2.7),
    "em_fit seed 1.5": lambda: em_fit(XS, 2, seed=1.5),
    "make_isotropic seed 1.5": lambda: make_isotropic(d=2, n=8, seed=1.5),
    "duality_gap_1d seed 1.5": lambda: duality_gap_1d(2.0, 1.0, 2.3, 0.8, seed=1.5),
    "disc_grad_x_batch width": lambda: disc_grad_x_batch(CRITIC, np.ones((5, 3))),
    "disc_grad_x_batch nan": lambda: disc_grad_x_batch(CRITIC, [[np.nan, 0.0]]),
    "psi_randomized width": lambda: psi_randomized(PAIR, np.ones(3), 0),
    "psi_randomized label 1.5": lambda: psi_randomized(PAIR, np.ones(D), 1.5),
    "duality_gap_1d mu_src string": lambda: duality_gap_1d("2", 1.0, 2.3, 0.8),
    "duality_gap_1d seed string": lambda: duality_gap_1d(2.0, 1.0, 2.3, 0.8, seed="3"),
    "duality_gap_bound_terms pe string": lambda: duality_gap_bound_terms(PAIR, "0.1", 1.0, 1.0),
    "duality_gap_bound_terms ex_norm2 nan": lambda: duality_gap_bound_terms(PAIR, 0.1, np.nan,
                                                                            1.0),
    "duality_gap_bound_terms ex_norm4 negative": lambda: duality_gap_bound_terms(PAIR, 0.1, 1.0,
                                                                                 -1.0),
    "check_latents string": lambda: check_latents(GEN, "abc", LABELS),
    "gen_apply nan latents": lambda: gen_apply(GEN, NAN_Z, LABELS),
    "BatchGame symmetric2 label 0": lambda: BatchGame(ANCHORS, GEN, SampleMoments(XS), Z,
                                                      np.where(LABELS > 0, 0, -1)),
    "gen_apply shared_cov label 0.5": lambda: gen_apply(KGEN, Z[:2], np.array([0.5, 1.0])),
    "gen_apply shared_cov float labels": lambda: gen_apply(KGEN, Z[:2], np.array([0.0, 1.0])),
    "check_latents shared_cov string labels": lambda: check_latents(KGEN, Z[:2], ["a", "b"]),
    "check_latents symmetric2 bool labels": lambda: check_latents(GEN, Z[:2], [True, True]),
    "make_k_mixture means string": lambda: make_k_mixture(D, 2, "abc", np.eye(D), 8),
    "make_k_mixture cov string": lambda: make_k_mixture(D, 2, np.eye(D), "abc", 8),
    "make_k_mixture cov nan": lambda: make_k_mixture(D, 2, np.eye(D), np.full((D, D), np.nan), 8),
    "make_k_mixture cov not PSD": lambda: make_k_mixture(D, 2, np.eye(D), -np.eye(D), 8),
    "GeneratorParams unknown mode": lambda: GeneratorParams(mode="x", cov_factor=np.eye(D),
                                                            means=np.ones((1, D))),
    "GeneratorParams cov_factor rows": lambda: GeneratorParams(
        mode=SYMMETRIC2, cov_factor=np.ones((3, D)), means=np.ones((1, D))),
    "GeneratorParams symmetric2 two means": lambda: GeneratorParams(
        mode=SYMMETRIC2, cov_factor=np.eye(D), means=np.ones((2, D))),
    "GeneratorParams shared_cov one mean": lambda: GeneratorParams(
        mode=SHARED_COV, cov_factor=np.eye(D), means=np.ones((1, D))),
    "DiscriminatorParams quad rows": lambda: DiscriminatorParams(
        quad=np.ones((3, D)), logits=np.ones((4, D)), consts=np.zeros(4)),
    "DiscriminatorParams odd rows": lambda: DiscriminatorParams(
        quad=np.eye(D), logits=np.ones((5, D)), consts=np.zeros(5)),
    "DiscriminatorParams two rows": lambda: DiscriminatorParams(
        quad=np.eye(D), logits=np.ones((2, D)), consts=np.zeros(2)),
    "DiscriminatorParams quad not symmetric": lambda: DiscriminatorParams(
        quad=[[1.0, 0.5], [0.0, 1.0]], logits=np.ones((4, D)), consts=np.zeros(4)),
    "DiscriminatorParams tied six rows": lambda: DiscriminatorParams(
        quad=np.eye(D), logits=np.zeros((6, D)), consts=np.zeros(6), tied=True),
    "DiscriminatorParams tied consts": lambda: DiscriminatorParams(
        quad=np.eye(D), logits=np.zeros((4, D)), consts=[1.0, 0.0, 0.0, 0.0], tied=True),
    "DiscriminatorParams tied rows not mirrored": lambda: DiscriminatorParams(
        quad=np.eye(D), logits=np.ones((4, D)), consts=np.zeros(4), tied=True),
    "em_fit symmetric2 k 3": lambda: em_fit(XS, 3, symmetric2=True),
    "GmmParams inconsistent shapes": lambda: GmmParams([0.2, 0.3, 0.5], np.eye(D), np.eye(D)),
    "TransportPair k mismatch": lambda: TransportPair.build(
        TRUTH, GmmParams(np.full(3, 1 / 3), np.ones((3, D)), np.eye(D))),
    "TransportPair weights not uniform": lambda: TransportPair.build(
        TRUTH, GmmParams([0.3, 0.7], np.eye(D), np.eye(D))),
    "duality_gap_bound_terms pe above 1": lambda: duality_gap_bound_terms(PAIR, 1.5, 1.0, 1.0),
    "duality_gap_bound_terms pe negative": lambda: duality_gap_bound_terms(PAIR, -0.1, 1.0,
                                                                           1.0),
    "w2_assignment_exact shapes": lambda: w2_assignment_exact(np.ones((3, D)), np.ones((4, D))),
    "c_transform_upper_bound curvature above eta": lambda: c_transform_upper_bound(
        CRITIC, ANCHORS, XS, 1e-3),
    "inner_max_solve shared_cov no latents": lambda: inner_max_solve(KGEN, XS, ANCHORS),
    "inner_max_solve labels without z_eval": lambda: inner_max_solve(
        GEN, XS, ANCHORS, labels=np.array(["junk"])),
    "make_k_mixture means rows": lambda: make_k_mixture(D, 3, np.eye(D), np.eye(D), 8),
    "sym_eigen not square": lambda: sym_eigen(np.ones((2, 3))),
    "gmm_objective_orthant zero direction": lambda: gmm_objective_orthant(TRUTH, XS,
                                                                          np.zeros(D)),
    "Anchors.from_data nan batch": lambda: Anchors.from_data([[np.nan, 0.0], [1.0, 1.0]], 2, 1.0),
    "Anchors.from_data more eigenvectors than d": lambda: Anchors.from_data(XS, 2 * D + 1, 1.0),
    "penalty_value anchor count": lambda: penalty_value(CRITIC, Anchors(
        d_vecs=np.ones((3, D)), e_consts=np.zeros(3), lam=1.0)),
    "GeneratorMoments shared_cov": lambda: GeneratorMoments(KGEN),
    "minimax_value_and_grads anchors of another d": lambda: minimax_value_and_grads(
        GEN, CRITIC, Anchors.symmetric(np.ones(3), lam=50.0), XS, Z, LABELS),
    "TrainConfig lam 0": lambda: TrainConfig(lam=0),
    "as_gaussian covariance overflows when symmetrized": lambda: as_gaussian([0.0], [[1e308]]),
    "condition1 covariance overflows when symmetrized": lambda: condition1_check(
        [1.0], [[1e308]], [1.0]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_is_invalid_input(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a nan result with a RuntimeWarning fails too
        with pytest.raises(InvalidInput):
            CASES[case]()
