import numpy as np
import pytest

from gatgmm.errors import InvalidInput
from gatgmm.gausscore import SeededRng, symmetrize
from gatgmm.model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    disc_grad_x_batch,
    disc_smoothness_bound,
    disc_value_batch,
    disc_vec,
    disc_with_vec,
    draw_latents,
    gen_apply,
    gen_sample_batch,
    gen_second_moment,
    params_from_json,
    params_to_json,
)


def sym2(cov, mu):
    return GeneratorParams(mode=SYMMETRIC2, cov_factor=np.asarray(cov, float),
                           means=np.asarray(mu, float)[None, :])


def random_disc(rng, d, tied, k=2, scale=0.5):
    quad = symmetrize(scale * rng.standard_normal((d, d)))
    if tied:
        return DiscriminatorParams.tied_symmetric(
            quad, scale * rng.standard_normal(d), scale * rng.standard_normal(d))
    logits = scale * rng.standard_normal((2 * k, d))
    consts = scale * rng.standard_normal(2 * k) if k != 2 else np.zeros(4)
    return DiscriminatorParams(quad=quad, logits=logits, consts=consts, tied=False)


# --- generator ------------------------------------------------------------


def test_gen_forward_identity_map():
    g = sym2(np.eye(2), [0.0, 0.0])
    assert np.allclose(gen_apply(g, [[1.0, 2.0]], [1]), [[1.0, 2.0]])


def test_gen_forward_sign_flip():
    g = sym2(np.eye(2), [3.0, 0.0])
    assert np.allclose(gen_apply(g, np.zeros((1, 2)), [-1]), [[-3.0, 0.0]])


def test_gen_forward_shared_cov_degenerate():
    means = np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    g = GeneratorParams(mode=SHARED_COV, cov_factor=np.zeros((2, 2)), means=means)
    assert np.allclose(gen_apply(g, np.ones((1, 2)), [1]), means[1:2])


def test_gen_forward_rejects_bad_label():
    g = sym2(np.eye(2), [1.0, 1.0])
    with pytest.raises(InvalidInput):
        gen_apply(g, np.zeros((1, 2)), [2])
    gk = GeneratorParams(mode=SHARED_COV, cov_factor=np.eye(2),
                         means=np.zeros((3, 2)))
    with pytest.raises(InvalidInput):
        gen_apply(gk, np.zeros((1, 2)), [3])


def test_gen_sample_two_atoms():
    g = sym2(np.zeros((2, 2)), [1.0, 1.0])
    xs = gen_sample_batch(g, 100, SeededRng(0))
    ok = np.all(np.isclose(xs, [1.0, 1.0]), axis=1) | np.all(np.isclose(xs, [-1.0, -1.0]), axis=1)
    assert np.all(ok)


def test_gen_sample_label_frequency():
    g = sym2(np.eye(2), [4.0, 0.0])
    _, labels = draw_latents(g, 100000, SeededRng(7))
    frac = np.mean(labels == 1)
    assert 0.49 <= frac <= 0.51


def test_gen_sample_sign_symmetric_mean():
    g = sym2(0.5 * np.eye(3), [2.0, -1.0, 0.5])
    n = 100000
    xs = gen_sample_batch(g, n, SeededRng(21))
    assert np.linalg.norm(xs.mean(axis=0)) <= 5 * 3 / np.sqrt(n)


def test_gen_sample_deterministic():
    g = sym2(np.eye(3), [1.0, 0.0, 0.0])
    a = gen_sample_batch(g, 16, SeededRng(9))
    b = gen_sample_batch(g, 16, SeededRng(9))
    assert np.array_equal(a, b)


def test_gen_second_moment_cases():
    assert np.allclose(gen_second_moment(sym2(np.eye(2), [0.0, 0.0])), np.eye(2))
    assert np.allclose(gen_second_moment(sym2(np.zeros((2, 2)), [1.0, 1.0])),
                       np.ones((2, 2)))
    mu = np.array([0.3, -1.2])
    lam = np.array([[0.5, 0.1], [0.0, 0.7]])
    g2 = sym2(lam, mu)
    gk = GeneratorParams(mode=SHARED_COV, cov_factor=lam, means=np.stack([mu, -mu]))
    assert np.allclose(gen_second_moment(g2), gen_second_moment(gk))


def test_gen_second_moment_matches_monte_carlo():
    rng = np.random.default_rng(3)
    lam = rng.standard_normal((3, 3)) * 0.4
    mu = rng.standard_normal(3)
    g = sym2(lam, mu)
    n = 1000000
    xs = gen_sample_batch(g, n, SeededRng(12))
    emp = xs.T @ xs / n
    moment = gen_second_moment(g)
    assert np.linalg.norm(emp - moment) <= 5 * np.linalg.norm(moment) / np.sqrt(n)


# --- discriminator ---------------------------------------------------------


def test_disc_value_zero_params():
    dd = DiscriminatorParams(quad=np.zeros((2, 2)), logits=np.zeros((4, 2)),
                             consts=np.zeros(4))
    for x in (np.zeros(2), np.array([3.0, -1.0])):
        assert disc_value_batch(dd, [x])[0] == pytest.approx(0.0, abs=1e-15)


def test_disc_value_pure_quadratic():
    dd = DiscriminatorParams(quad=np.array([[1.0]]), logits=np.zeros((4, 1)),
                             consts=np.zeros(4))
    assert disc_value_batch(dd, [[2.0]])[0] == pytest.approx(2.0)


def test_disc_value_scalar_logcosh():
    # b1=1, b2=-1, b3=b4=0 at x=1: log((e + e^-1)/2) = log(cosh(1))
    dd = DiscriminatorParams(quad=np.zeros((1, 1)),
                             logits=np.array([[1.0], [-1.0], [0.0], [0.0]]),
                             consts=np.zeros(4))
    assert disc_value_batch(dd, [[1.0]])[0] == pytest.approx(np.log(np.cosh(1.0)), abs=1e-12)


def test_disc_value_even_in_tied_mode():
    rng = np.random.default_rng(0)
    dd = random_disc(rng, 3, tied=True)
    for _ in range(20):
        x = rng.standard_normal(3) * 3
        assert disc_value_batch(dd, [x])[0] == pytest.approx(disc_value_batch(dd, [-x])[0],
                                                             abs=1e-12)


def test_disc_grad_x_simple():
    dd = DiscriminatorParams(quad=np.zeros((2, 2)), logits=np.zeros((4, 2)),
                             consts=np.zeros(4))
    assert np.allclose(disc_grad_x_batch(dd, [[1.0, 2.0]]), 0.0)
    dd2 = DiscriminatorParams(quad=np.eye(2), logits=np.zeros((4, 2)),
                              consts=np.zeros(4))
    x = np.array([0.5, -2.0])
    assert np.allclose(disc_grad_x_batch(dd2, [x])[0], x)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("tied", [True, False])
def test_disc_grad_x_finite_difference(d, tied):
    rng = np.random.default_rng(100 + d)
    h = 1e-5
    for _ in range(25):
        dd = random_disc(rng, d, tied=tied)
        x = rng.standard_normal(d)
        grad = disc_grad_x_batch(dd, [x])[0]
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (disc_value_batch(dd, [x + e])[0]
                     - disc_value_batch(dd, [x - e])[0]) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("tied, k", [(True, 2), (False, 2), (False, 3)])
@pytest.mark.parametrize("include_c", [False, True])
def test_tied_layout_round_trip(tied, k, include_c):
    dd = random_disc(np.random.default_rng(210 + k), 3, tied=tied, k=k)
    back = [DiscriminatorParams.from_free(dd.quad, dd.free_rows, dd.consts, dd.tied),
            disc_with_vec(dd, disc_vec(dd, include_c), include_c)]
    assert dd.free_rows.shape == ((2, 3) if tied else (2 * k, 3))
    for other in back:
        assert other.tied == dd.tied
        for a, b in [(other.quad, dd.quad), (other.logits, dd.logits),
                     (other.consts, dd.consts)]:
            assert np.array_equal(a, b)


def test_smoothness_bound():
    zero = DiscriminatorParams(quad=np.zeros((2, 2)), logits=np.zeros((4, 2)),
                               consts=np.zeros(4))
    assert disc_smoothness_bound(zero) == 0.0
    b = np.zeros((4, 2))
    b[0] = [np.sqrt(0.1), 0.0]  # max ||b||^2 = 0.1 -> 2 * 0.1 = 0.2
    dd = DiscriminatorParams(quad=0.3 * np.eye(2), logits=b, consts=np.zeros(4))
    assert disc_smoothness_bound(dd) == pytest.approx(0.5)
    dd2 = DiscriminatorParams(quad=np.diag([0.5, -1.0]), logits=np.zeros((4, 2)),
                              consts=np.zeros(4))
    assert disc_smoothness_bound(dd2) == pytest.approx(0.5)


def test_tied_constructor_validates():
    with pytest.raises(InvalidInput):
        DiscriminatorParams(quad=np.zeros((2, 2)),
                            logits=np.array([[1.0, 0], [1.0, 0], [0, 0], [0, 0]]),
                            consts=np.zeros(4), tied=True)


def test_params_json_roundtrip():
    rng = np.random.default_rng(5)
    g = sym2(rng.standard_normal((3, 3)), rng.standard_normal(3))
    dd = random_disc(rng, 3, tied=True)
    g2, dd2 = params_from_json(params_to_json(g, dd))
    assert np.array_equal(g.cov_factor, g2.cov_factor)
    assert np.array_equal(g.means, g2.means)
    assert np.array_equal(dd.logits, dd2.logits)
    assert dd2.tied


@pytest.mark.parametrize("tied", ["false", 1, None])
def test_params_json_tied_must_be_a_bool(tied):
    rng = np.random.default_rng(5)
    obj = params_to_json(sym2(rng.standard_normal((3, 3)), rng.standard_normal(3)),
                         random_disc(rng, 3, tied=True))
    with pytest.raises(InvalidInput, match="tied"):
        params_from_json(obj | {"tied": tied})
