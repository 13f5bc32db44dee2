import numpy as np
import pytest

from cvwitness import (
    EprWeights,
    euler_identity_terms,
    min_separability_sum_numeric,
    random_standard,
    reid_product,
    separability_sum,
    split_standard,
    steering_sum_ab,
    steering_sum_ba,
    tmsv,
    uncertainty_sum_check,
    vacuum,
    variance_p,
    variance_q,
)
from cvwitness.covariance import StandardForm
from cvwitness.observables import separability_sum_gradient


def sf_of(cm):
    return split_standard(cm)


def commutator_rhs(alpha, beta, sign):
    """The commutator scale |[Q, P+-]|: the right-hand side of the
    uncertainty sum, here read on the vacuum."""
    return uncertainty_sum_check(sf_of(vacuum(len(alpha))), EprWeights(alpha, beta), sign).rhs


def random_weights(rng, n):
    return EprWeights(rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))


class TestEprWeights:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            EprWeights([1.0, -0.2], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            EprWeights([1.0, 1e-13], [1.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            EprWeights([1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="two components"):
            EprWeights([1.0], [1.0])

    def test_length(self):
        assert len(EprWeights([1, 2, 3], [1, 1, 1])) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_non_finite_weights_rejected(self, name, bad):
        # nan < MIN_WEIGHT is False, so the positivity floor let a NaN
        # weight through, and separability_sum returned NaN
        weights = {"alpha": [1.0, 1.0], "beta": [1.0, 1.0]}
        weights[name][0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
            EprWeights(**weights)


class TestVariances:
    def test_vacuum_no_cross_terms(self):
        for n in (2, 3, 5):
            sf = sf_of(vacuum(n))
            ones = np.ones(n)
            assert variance_q(sf.vq, ones) == pytest.approx(n / 2)
            assert variance_p(sf.vp, ones, "plus") == pytest.approx(n / 2)
            assert variance_p(sf.vp, ones, "minus") == pytest.approx(n / 2)

    def test_tmsv_epr_variances(self):
        # b1 + b2 - 2c = cosh(1) - sinh(1) = 1/e for r = 0.5
        sf = sf_of(tmsv(0.5))
        ones = [1.0, 1.0]
        assert variance_q(sf.vq, ones) == pytest.approx(np.exp(-1), abs=1e-12)
        assert variance_p(sf.vp, ones, "plus") == pytest.approx(np.exp(-1), abs=1e-12)
        assert variance_p(sf.vp, ones, "minus") == pytest.approx(np.e, abs=1e-12)

    def test_quadratic_homogeneity(self):
        sf = sf_of(tmsv(0.3))
        a = np.array([0.7, 1.4])
        assert variance_q(sf.vq, 2 * a) == pytest.approx(4 * variance_q(sf.vq, a))

    def test_length_mismatch(self):
        sf = sf_of(vacuum(2))
        with pytest.raises(ValueError, match="length"):
            variance_q(sf.vq, [1.0, 1.0, 1.0])

    def test_bad_sign_label(self):
        sf = sf_of(vacuum(2))
        with pytest.raises(ValueError, match="sign"):
            variance_p(sf.vp, [1.0, 1.0], "both")

    def test_p_length_mismatch(self):
        with pytest.raises(ValueError, match="weight length 2 != block size 3"):
            variance_p(np.eye(3), [1, 1])

    def test_normalized_sum_length_mismatch(self):
        with pytest.raises(ValueError, match="alpha has length 3, expected 2"):
            separability_sum(sf_of(vacuum(2)), EprWeights([1, 1, 1], [1, 1, 1]))


class TestCommutatorBound:
    def test_epr_pair_commutes(self):
        assert commutator_rhs([1, 1], [1, 1], "plus") == 0.0

    def test_minus_variant(self):
        assert commutator_rhs([1, 1], [1, 1], "minus") == 2.0

    def test_cancellation(self):
        assert commutator_rhs([1, 2, 3], [1, 1, 1], "plus") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            uncertainty_sum_check(sf_of(vacuum(2)), EprWeights([1, 1, 1], [1, 1, 1]))


class TestUncertaintySum:
    def test_vacuum_satisfied(self, rng):
        sf = sf_of(vacuum(2))
        for _ in range(20):
            w = random_weights(rng, 2)
            for sign in ("plus", "minus"):
                assert uncertainty_sum_check(sf, w, sign).satisfied

    def test_tmsv_values(self):
        sf = sf_of(tmsv(0.5))
        w = EprWeights([1, 1], [1, 1])
        got = uncertainty_sum_check(sf, w, "plus")
        assert got.lhs == pytest.approx(2 * np.exp(-1), abs=1e-12)
        assert got.rhs == 0.0
        assert got.satisfied

    def test_sub_vacuum_violates_minus(self):
        sf = StandardForm(0.25 * np.eye(2), 0.25 * np.eye(2))
        got = uncertainty_sum_check(sf, EprWeights([1, 1], [1, 1]), "minus")
        assert got.lhs == pytest.approx(1.0)
        assert got.rhs == pytest.approx(2.0)
        assert not got.satisfied

    def test_pure_tmsv_saturates(self):
        # alpha = beta = (1, tanh r) saturate the relation on tmsv(r); lhs
        # rounds like eps |alpha|^2 max|V_q|, up to 3.9e-9 below rhs at
        # r = 8.95, and an absolute 1e-12 called 81 of these violated, the
        # first at r = 4.875
        for r in np.linspace(0.5, 9, 341):
            t = np.tanh(r)
            chk = uncertainty_sum_check(sf_of(tmsv(r)), EprWeights([1, t], [1, t]), "plus")
            assert chk.satisfied, r
            assert chk.lhs == pytest.approx(chk.rhs, abs=1e-8)
        sf = StandardForm(0.2 * np.eye(2), 0.2 * np.eye(2))
        assert not uncertainty_sum_check(sf, EprWeights([1, 1], [1, 1]), "minus").satisfied

    def test_physicality_invariant(self, rng, assorted_cms):
        # physical states satisfy the sum and product forms for any weights
        for cm in assorted_cms:
            sf = sf_of(cm)
            for _ in range(10):
                w = random_weights(rng, sf.n_modes)
                for sign in ("plus", "minus"):
                    chk = uncertainty_sum_check(sf, w, sign)
                    assert chk.satisfied
                    dq = np.sqrt(variance_q(sf.vq, w.alpha))
                    dp = np.sqrt(variance_p(sf.vp, w.beta, sign))
                    assert dq * dp >= chk.rhs / 2 - 1e-12


class TestReidProduct:
    def test_vacuum_unity(self):
        got = reid_product(sf_of(vacuum(2)), 1.0, 1.0)
        assert got.product == pytest.approx(1.0)
        assert got.bound == 0.0
        assert not got.paradox

    def test_tmsv_optimal_gain_fires(self):
        sf = sf_of(tmsv(0.5))
        gain = np.tanh(1.0)
        got = reid_product(sf, gain, gain)
        assert got.paradox
        assert got.product == pytest.approx(1 / (2 * np.cosh(1.0)), abs=1e-12)
        # the hyperbolic gain is optimal: no grid point does better
        grid = np.linspace(0.05, 2.0, 80)
        best = min(
            reid_product(sf, lam, mu).product for lam in grid for mu in grid
        )
        assert got.product <= best + 1e-12

    def test_zero_squeezing_no_paradox(self):
        got = reid_product(sf_of(tmsv(0.0)), 1.0, 1.0)
        assert got.product == pytest.approx(1.0)
        assert not got.paradox

    def test_unit_gain_product_bound_zero(self):
        got = reid_product(sf_of(tmsv(0.8)), 2.0, 0.5)
        assert got.bound == 0.0

    def test_two_mode_only(self):
        with pytest.raises(ValueError, match="two-mode"):
            reid_product(sf_of(vacuum(3)), 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name", ["lam", "mu"])
    def test_bad_gain_rejected(self, name, bad):
        # a NaN gain gave a NaN product and paradox False
        gains = {"lam": 1.0, "mu": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"inference gain {name} must be finite and positive"):
            reid_product(sf_of(tmsv(0.5)), **gains)


class TestNormalizedSums:
    def test_vacuum_separability_sum(self):
        sf = sf_of(vacuum(2))
        assert separability_sum(sf, EprWeights([1, 1], [1, 1]), "plus") == 1.0

    def test_tmsv_separability_sum(self):
        sf = sf_of(tmsv(0.5))
        got = separability_sum(sf, EprWeights([1, 1], [1, 1]), "plus")
        assert got == pytest.approx(np.exp(-1), abs=1e-12)

    def test_steering_sums_on_vacuum(self):
        sf = sf_of(vacuum(2))
        w = EprWeights([1, 1], [1, 1])
        assert steering_sum_ab(sf, w) == pytest.approx(2.0)
        assert steering_sum_ba(sf, w) == pytest.approx(2.0)

    def test_steering_sums_on_tmsv(self):
        sf = sf_of(tmsv(0.5))
        w = EprWeights([1, 1], [1, 1])
        assert steering_sum_ab(sf, w) == pytest.approx(2 * np.exp(-1), abs=1e-12)
        assert steering_sum_ba(sf, w) == pytest.approx(2 * np.exp(-1), abs=1e-12)

    def test_product_cm_ba_limit(self):
        b1, b2 = 1.4, 0.9
        sf = StandardForm(np.diag([b1, b2]), np.diag([b1, b2]))
        w = EprWeights([1.0, 1e-8], [1.0, 1e-8])
        assert steering_sum_ba(sf, w) == pytest.approx(2 * b1, abs=1e-12)

    def test_joint_scale_invariance(self, rng, assorted_cms):
        # the normalized sums are degree-0 homogeneous under the joint
        # scaling (alpha, beta) -> (s*alpha, s*beta); the counter-scaling
        # (s*alpha, beta/s) preserves only the product form
        for cm in assorted_cms[:6]:
            sf = sf_of(cm)
            w = random_weights(rng, sf.n_modes)
            for s in (0.5, 2.0, 7.3):
                scaled = EprWeights(s * w.alpha, s * w.beta)
                for sign in ("plus", "minus"):
                    a = separability_sum(sf, w, sign)
                    b = separability_sum(sf, scaled, sign)
                    assert abs(a - b) / abs(a) < 1e-12
                assert abs(
                    steering_sum_ab(sf, w) - steering_sum_ab(sf, scaled)
                ) / steering_sum_ab(sf, w) < 1e-12
                assert abs(
                    steering_sum_ba(sf, w) - steering_sum_ba(sf, scaled)
                ) / steering_sum_ba(sf, w) < 1e-12

    def test_counter_scaling_preserves_product_form(self, rng, assorted_cms):
        for cm in assorted_cms[:4]:
            sf = sf_of(cm)
            w = random_weights(rng, sf.n_modes)
            base = np.sqrt(
                variance_q(sf.vq, w.alpha) * variance_p(sf.vp, w.beta, "plus")
            )
            for s in (0.5, 3.0):
                got = np.sqrt(
                    variance_q(sf.vq, s * w.alpha)
                    * variance_p(sf.vp, w.beta / s, "plus")
                )
                assert abs(got - base) / base < 1e-12

    def test_separability_bound_on_product_states(self, rng):
        # uncorrelated Alice/Bob keep the separability sum at or above 1
        for seed in range(5):
            alice = split_standard(random_standard(2, seed=seed))
            bob = rng.uniform(0.5, 2.0)
            n = alice.n_modes + 1
            vq = np.zeros((n, n))
            vq[:-1, :-1] = alice.vq
            vq[-1, -1] = bob
            vp = np.zeros((n, n))
            vp[:-1, :-1] = alice.vp
            vp[-1, -1] = bob
            sf = StandardForm(vq, vp)
            for _ in range(20):
                w = random_weights(rng, n)
                for sign in ("plus", "minus"):
                    assert separability_sum(sf, w, sign) >= 1.0 - 1e-12


class TestEulerIdentity:
    def test_identity_against_closed_form(self, rng):
        for seed in range(30):
            sf = split_standard(random_standard(int(rng.integers(2, 5)), seed=seed))
            for _ in range(5):
                w = random_weights(rng, sf.n_modes)
                for sign in ("plus", "minus"):
                    terms = euler_identity_terms(sf, w, sign)
                    assert abs(terms.lhs_alpha - terms.rhs) < 1e-10
                    assert abs(terms.lhs_beta - terms.rhs) < 1e-10

    def test_against_finite_differences(self, rng):
        step = 1e-6
        for seed in range(10):
            sf = split_standard(random_standard(3, seed=seed))
            w = random_weights(rng, 3)
            for sign in ("plus", "minus"):
                ga, gb = separability_sum_gradient(sf, w.alpha, w.beta, sign)
                for j in range(3):
                    for vec, grad, which in ((w.alpha, ga, "a"), (w.beta, gb, "b")):
                        up = vec.copy()
                        dn = vec.copy()
                        up[j] += step
                        dn[j] -= step
                        if which == "a":
                            hi = separability_sum(sf, EprWeights(up, w.beta), sign)
                            lo = separability_sum(sf, EprWeights(dn, w.beta), sign)
                        else:
                            hi = separability_sum(sf, EprWeights(w.alpha, up), sign)
                            lo = separability_sum(sf, EprWeights(w.alpha, dn), sign)
                        fd = (hi - lo) / (2 * step)
                        assert abs(fd - grad[j]) < 1e-4

    def test_balanced_at_minimum(self):
        # at an optimizer output the two variances agree, so the radial
        # derivative vanishes
        sf = split_standard(tmsv(0.6))
        res = min_separability_sum_numeric(sf, "plus")
        num = variance_q(sf.vq, res.argmin_alpha) - variance_p(
            sf.vp, res.argmin_beta, "plus"
        )
        rhs = num / (res.argmin_alpha @ res.argmin_beta)
        assert abs(rhs) < 1e-9
