import functools
import json

import numpy as np
import pytest

from cvwitness import (
    CovarianceMatrix,
    EprWeights,
    GridSpec,
    TwoModeStandardParams,
    brute_force_min,
    certify,
    check_unsteerable_ab,
    check_unsteerable_ba,
    min_separability_sum_numeric,
    min_steering_sum_ab,
    min_steering_sum_ab_numeric,
    min_steering_sum_ba_numeric,
    random_standard,
    random_two_mode_params,
    schur_complement,
    separability_sum,
    split_standard,
    standard_form_reduce_two_mode,
    tmsv,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    vacuum,
    variance_p,
    variance_q,
)
from cvwitness.cli import _ORACLE_FUNCTIONALS
from cvwitness.covariance import (
    StandardForm,
    _stack_witnesses,
    local_direct_sum,
    one_mode_squeeze,
    partial_transpose_bob,
    symplectic_eigenvalues,
)
from cvwitness.observables import functional_forms
from cvwitness.optimize import (
    _BATCH,
    _BLOCK,
    _CHAINS,
    FUNCTIONALS,
    _minimize_gauge_ratio,
    _warm_start,
)
from conftest import product_cm
import freeze

VACUUM_PARAMS = TwoModeStandardParams(0.5, 0.5, 0.0, 0.0)


def sep_closed_form(params, sign):
    """The two-mode separability minimum: twice the smaller symplectic
    eigenvalue of the partial transpose (plus) or of the CM (minus)."""
    pair = two_mode_symplectic_pair_pt if sign == "plus" else two_mode_symplectic_pair
    return 2.0 * pair(params)[0]


def tmsv_params(r):
    b = np.cosh(2 * r) / 2
    c = np.sinh(2 * r) / 2
    return TwoModeStandardParams(b, b, c, -c)


class TestTwoModeClosedForm:
    def test_vacuum(self):
        assert sep_closed_form(VACUUM_PARAMS, "plus") == pytest.approx(1.0)
        assert sep_closed_form(VACUUM_PARAMS, "minus") == pytest.approx(1.0)

    def test_tmsv(self):
        p = tmsv_params(0.5)
        assert sep_closed_form(p, "plus") == pytest.approx(
            np.exp(-1), abs=1e-12
        )
        assert sep_closed_form(p, "minus") == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        p = TwoModeStandardParams(1.0, 0.7, 0.0, 0.0)
        assert sep_closed_form(p, "plus") == pytest.approx(1.4)
        assert sep_closed_form(p, "minus") == pytest.approx(1.4)

    def test_non_physical_rejected(self):
        p = TwoModeStandardParams(1.0, 0.5, 1.0, -1.0)
        with pytest.raises(ValueError, match="discriminant"):
            sep_closed_form(p, "minus")


class TestSeparabilityNumeric:
    def test_tmsv_plus(self):
        sf = split_standard(tmsv(0.5))
        res = min_separability_sum_numeric(sf, "plus")
        assert res.converged
        assert res.value == pytest.approx(np.exp(-1), abs=1e-6)

    def test_vacuum(self):
        sf = split_standard(vacuum(2))
        for sign in ("plus", "minus"):
            res = min_separability_sum_numeric(sf, sign)
            assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_value_matches_argmin(self):
        # each value is the variance sum over its own gauge at its weights:
        # sum_l a_l b_l for separability, a_B b_B for A->B and
        # sum_{j<=N} a_j b_j for B->A
        sf = split_standard(random_standard(3, seed=4))
        runs = [
            (min_separability_sum_numeric(sf, "plus"), "plus", lambda a, b: a @ b),
            (min_separability_sum_numeric(sf, "minus"), "minus", lambda a, b: a @ b),
            (min_steering_sum_ab_numeric(sf), "plus", lambda a, b: a[-1] * b[-1]),
            (min_steering_sum_ba_numeric(sf), "plus", lambda a, b: a[:-1] @ b[:-1]),
        ]
        for res, sign, gauge in runs:
            direct = variance_q(sf.vq, res.argmin_alpha) + variance_p(
                sf.vp, res.argmin_beta, sign
            )
            assert res.value == pytest.approx(
                direct / gauge(res.argmin_alpha, res.argmin_beta), abs=1e-12
            )
            assert res.value > 0

    def test_minimality_against_probes(self, rng):
        sf = split_standard(random_standard(2, seed=9))
        for sign in ("plus", "minus"):
            res = min_separability_sum_numeric(sf, sign)
            for _ in range(100):
                w = EprWeights(rng.uniform(0.05, 2, 2), rng.uniform(0.05, 2, 2))
                assert res.value <= separability_sum(sf, w, sign) + 1e-9

    def test_two_mode_agreement_with_closed_form(self):
        for seed in range(25):
            params = random_two_mode_params(seed=seed, d_sign=-1)
            sf = params.to_standard_form()
            for sign, closed in (
                ("plus", sep_closed_form(params, "plus")),
                ("minus", sep_closed_form(params, "minus")),
            ):
                res = min_separability_sum_numeric(sf, sign)
                assert abs(res.value - closed) < 1e-10

    def test_extremum_balance_condition(self):
        for seed in range(20):
            sf = split_standard(random_standard(3, seed=seed))
            for sign in ("plus", "minus"):
                res = min_separability_sum_numeric(sf, sign)
                dq2 = variance_q(sf.vq, res.argmin_alpha)
                dp2 = variance_p(sf.vp, res.argmin_beta, sign)
                assert abs(dq2 - dp2) / (dq2 + dp2) < 1e-6

    def test_multimode_matches_symplectic_route(self):
        # the stationary structure ties the minimum to twice the smallest
        # symplectic eigenvalue (of the partial transpose for the plus
        # variant) for any Alice mode count; use it as an internal oracle
        for seed in range(10):
            n = 3 if seed % 2 else 4
            cm = random_standard(n, seed=seed)
            sf = split_standard(cm)
            plus = min_separability_sum_numeric(sf, "plus").value
            minus = min_separability_sum_numeric(sf, "minus").value
            nu = symplectic_eigenvalues(cm).min()
            nu_pt = symplectic_eigenvalues(partial_transpose_bob(cm)).min()
            assert plus == pytest.approx(2 * nu_pt, abs=1e-8)
            assert minus == pytest.approx(2 * nu, abs=1e-8)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_repeated_top_singular_value_keeps_equal_weights(self, sign):
        # the whitened gauge of vacuum(3) is a multiple of the identity, so
        # sigma_max repeats and any unit vector is a top singular vector: the
        # start must project the all-ones weights onto that subspace, not
        # take one singular vector, which leaves the positive orthant
        res = min_separability_sum_numeric(split_standard(vacuum(3)), sign)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not res.boundary_flag
        np.testing.assert_allclose(res.argmin_alpha, np.full(3, 3 ** -0.5), rtol=1e-9)

    def test_start_orthogonal_to_all_ones(self):
        # sigma_max's singular vector (-1, 1)/sqrt(2) is orthogonal to the
        # whitened all-ones vector, whose projection vanishes, so the start
        # is the singular vector itself, not the stationary point (1, 1)
        sf = StandardForm(vq=np.eye(2), vp=[[1.0, 0.3], [0.3, 1.0]])
        res = min_separability_sum_numeric(sf, "plus")
        assert res.value == pytest.approx(1.6733200530681511, rel=1e-12)
        assert (res.converged, res.iterations, res.restarts_used) == (True, 0, 1)

    def test_boundary_flag_reports_orthant_exit(self):
        # product state: the cross weights vanish at the minimum
        sf = split_standard(product_cm(1.0, 0.7))
        res = min_separability_sum_numeric(sf, "minus")
        assert res.boundary_flag


@pytest.mark.parametrize(
    "minimize",
    [
        lambda sf: min_separability_sum_numeric(sf, "plus"),
        lambda sf: min_separability_sum_numeric(sf, "minus"),
        min_steering_sum_ab_numeric,
        min_steering_sum_ba_numeric,
        min_steering_sum_ab,
        *(lambda sf, f=f: brute_force_min(sf, f, GridSpec(samples=100)) for f in FUNCTIONALS),
    ],
    ids=[
        "sep_plus-numeric", "sep_minus-numeric", "steer_ab-numeric", "steer_ba-numeric",
        "steer_ab-closed", *(f"{f}-brute" for f in FUNCTIONALS),
    ],
)
def test_one_mode_form_refused(minimize):
    # a one-mode form has no Alice; the minimizers used to return 1.673,
    # inf or a LinAlgError for it, depending on the route
    with pytest.raises(ValueError, match="bipartite"):
        minimize(StandardForm(vq=[[1.0]], vp=[[0.7]]))


def _inv_sqrt(m):
    """m^(-1/2) of a symmetric positive definite m, from numpy's eigh."""
    w, u = np.linalg.eigh(m)
    return (u / np.sqrt(w)) @ u.T


@pytest.mark.parametrize("functional", FUNCTIONALS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(2, 9))
def test_value_is_two_over_top_singular_value(n, seed, functional):
    # each minimum is exactly 2 / sigma_max of the whitened gauge
    # G = Mq^(-1/2) W Mp^(-1/2), which the solver reads at G's top singular
    # pair, with no sweeps
    sf = split_standard(random_standard(n, seed=seed))
    mq, mp, w = functional_forms(sf, functional)
    sigma_max = np.linalg.svd(_inv_sqrt(mq) @ w @ _inv_sqrt(mp), compute_uv=False)[0]
    res = _ORACLE_FUNCTIONALS[functional][2](sf)
    assert res.value == pytest.approx(2.0 / sigma_max, rel=1e-12)
    assert (res.converged, res.iterations, res.restarts_used) == (True, 0, 1)


def test_solver_pins():
    """Every bit of the value and weights, ``iterations`` (0: the solver
    runs no sweeps) and both flags that the numeric minimizers gave at the
    freeze (``tests/data/freeze.py``). A speed-up of the solve must not
    move any of them, and every solve converges."""
    pinned = (freeze.HERE / "solver_pins.json").read_text()
    assert freeze.render("solver") == pinned
    assert sum(not pin["converged"] for pin in json.loads(pinned)) == 0


class TestScaledStart:
    @pytest.mark.parametrize(
        "functional, a_bad, b_bad",
        [
            ("sep_minus", [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]),
            ("steer_ba", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]),
            ("sep_plus", [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
        ],
    )
    def test_degenerate_gauge(self, monkeypatch, functional, a_bad, b_bad):
        # a0' W b0 = 0, or negative as in the last case: no positive scale
        # puts the start on the gauge surface a' W b = 1
        sf = split_standard(random_standard(3, seed=2))
        monkeypatch.setattr("cvwitness.optimize._warm_start",
                            lambda mq, mp, w: (np.array(a_bad), np.array(b_bad)))
        with pytest.raises(np.linalg.LinAlgError, match="minimization degenerated"):
            _minimize_gauge_ratio(sf, functional)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_result_is_scaled_warm_start(self, seed):
        # the reported weights are the start's, each scaled by a positive
        # factor up to the canonical sign, on the gauge surface a' W b = 1
        # with equal variances, and the value is the functional there
        sf = split_standard(random_standard(3, seed=seed))
        mq, mp, w = functional_forms(sf, "sep_minus")
        a0, b0 = _warm_start(mq, mp, w)
        res = min_separability_sum_numeric(sf, "minus")
        a, b = res.argmin_alpha, res.argmin_beta
        sign = 1.0 if a0.sum() >= 0 else -1.0
        for x, x0 in ((a, a0), (b, b0)):
            assert sign * (x @ x0) == pytest.approx(np.linalg.norm(x) * np.linalg.norm(x0), rel=1e-14)
        q, p = a @ mq @ a, b @ mp @ b
        assert a @ w @ b == pytest.approx(1.0, rel=1e-14)
        assert q == pytest.approx(p, rel=1e-14)
        assert res.value == pytest.approx(q + p, rel=1e-14)

    @pytest.mark.parametrize("functional", ["sep_plus", "steer_ba"])
    def test_lapack_calls_per_solve(self, monkeypatch, functional):
        # the whitened gauge's two inverse square roots and its SVD, each on
        # an n x n matrix, and no linear solve
        n = 4
        sf = split_standard(random_standard(n, seed=2))
        calls = []

        def counted(m, *args, _fn, _name, **kwargs):
            calls.append((_name, m.shape))
            return _fn(m, *args, **kwargs)

        for name in ("eigh", "svd", "solve", "inv", "cholesky", "eigvalsh", "eig", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, functools.partial(counted, _fn=getattr(np.linalg, name), _name=name))
        _minimize_gauge_ratio(sf, functional)
        assert calls == [("eigh", (n, n))] * 2 + [("svd", (n, n))]


class TestSteeringAbClosedForm:
    def test_vacuum(self):
        assert min_steering_sum_ab(split_standard(vacuum(2))) == pytest.approx(1.0)

    def test_tmsv(self):
        got = min_steering_sum_ab(split_standard(tmsv(0.5)))
        assert got == pytest.approx(1 / np.cosh(1.0), abs=1e-12)
        assert got == pytest.approx(0.648054, abs=1e-6)

    def test_product_state_bound(self):
        for b2 in (0.5, 0.9, 1.7):
            got = min_steering_sum_ab(split_standard(product_cm(1.3, b2)))
            assert got == pytest.approx(2 * b2, abs=1e-12)
            assert got >= 1.0 - 1e-12

    def test_singular_alice_block(self):
        sf = StandardForm.__new__(StandardForm)
        object.__setattr__(sf, "vq", np.array([[0.0, 0.0], [0.0, 1.0]]))
        object.__setattr__(sf, "vp", np.eye(2))
        object.__setattr__(sf, "n_alice", 1)
        with pytest.raises(np.linalg.LinAlgError):
            min_steering_sum_ab(sf)


class TestSteeringAbNumeric:
    def test_tmsv_value_and_argmin(self):
        sf = split_standard(tmsv(0.5))
        res = min_steering_sum_ab_numeric(sf)
        assert res.value == pytest.approx(0.6480542736638855, abs=1e-10)
        ratio = res.argmin_alpha[0] / res.argmin_alpha[1]
        assert ratio == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_vacuum_boundary(self):
        res = min_steering_sum_ab_numeric(split_standard(vacuum(2)))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.boundary_flag

    def test_agrees_with_closed_form(self):
        for seed in range(30):
            n = 2 + seed % 3
            sf = split_standard(random_standard(n, seed=seed))
            res = min_steering_sum_ab_numeric(sf)
            assert abs(res.value - min_steering_sum_ab(sf)) < 1e-10

    def test_agrees_with_brute_force(self):
        for seed in range(20):
            sf = split_standard(random_standard(3, seed=100 + seed))
            res = min_steering_sum_ab_numeric(sf)
            brute = brute_force_min(sf, "steer_ab", GridSpec(samples=120_000, seed=seed))
            assert abs(res.value - brute) < 1e-4


class TestSteeringBaNumeric:
    def test_two_mode_closed_form(self):
        # with one Alice mode the B->A minimum is 2 sqrt(det V / det V_B)
        for seed in range(10):
            params = random_two_mode_params(seed=seed)
            sf = params.to_standard_form()
            res = min_steering_sum_ba_numeric(sf)
            det_v = np.linalg.det(sf.vq) * np.linalg.det(sf.vp)
            det_b = sf.vq[-1, -1] * sf.vp[-1, -1]
            assert res.value == pytest.approx(2 * np.sqrt(det_v / det_b), abs=1e-8)

    def test_tmsv_symmetric_state(self):
        res = min_steering_sum_ba_numeric(split_standard(tmsv(0.5)))
        assert res.value == pytest.approx(1 / np.cosh(1.0), abs=1e-8)


class TestUnsteerabilityChecks:
    def test_product_cm_unsteerable(self):
        cm = product_cm(1.3, 0.8)
        chk = check_unsteerable_ba(cm)
        assert chk.matrix_ok and chk.det_ok
        np.testing.assert_allclose(schur_complement(cm, "B"), 1.3 * np.eye(2))

    def test_tmsv_steerable_both_ways(self):
        cm = tmsv(0.5)
        ba = check_unsteerable_ba(cm)
        assert not ba.matrix_ok
        assert ba.det_ratio == pytest.approx(1 / (4 * np.cosh(1.0) ** 2), abs=1e-12)
        assert ba.det_ratio == pytest.approx(0.104994, abs=1e-6)
        assert symplectic_eigenvalues(schur_complement(cm, "B")).min() == pytest.approx(
            1 / (2 * np.cosh(1.0)), abs=1e-12
        )
        ab = check_unsteerable_ab(cm)
        assert not ab.matrix_ok and not ab.det_ok

    def test_matrix_implies_det(self, assorted_cms):
        for cm in assorted_cms:
            if cm.n_modes < 2:
                continue
            for chk in (check_unsteerable_ba(cm), check_unsteerable_ab(cm)):
                if chk.matrix_ok:
                    assert chk.det_ok

    def test_det_weaker_than_matrix_for_multimode_alice(self):
        # thermal mode (+) TMSV: Schur complement has a symplectic eigenvalue
        # below 1/2 while the determinant ratio stays comfortably large
        r = 0.5
        b = np.cosh(2 * r) / 2
        nu1 = 2 * b
        m = np.zeros((6, 6))
        m[:2, :2] = nu1 * np.eye(2)
        m[2:, 2:] = tmsv(r).matrix
        cm = CovarianceMatrix(m)
        chk = check_unsteerable_ba(cm)
        assert chk.det_ok
        assert not chk.matrix_ok
        assert chk.det_ratio == pytest.approx(0.25, abs=1e-12)
        assert chk.det_ratio >= 2.0**-4

    def test_singular_bob_block(self):
        m = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            check_unsteerable_ba(CovarianceMatrix(m))

    @pytest.mark.parametrize("z, r0", [(0.5, 9.095), (1.0, 9.135)])
    def test_raise_where_certify_cannot_factor(self, z, r0):
        # squeezed TMSV near the limit of factorization: on some grid points
        # V factors with one party first but not with the other, so
        # certify refuses the CM. Each check used to factor only its own
        # ordering and report witnesses there (det_ratio 4.2e-17 A->B at
        # r = 9.095, z = 0.5; a B->A result at r = 9.135, z = 1.0)
        s = local_direct_sum([one_mode_squeeze(z), np.eye(2)])
        refused = 0
        for r in np.round(np.arange(r0 - 0.02, r0 + 0.0201, 0.005), 4):
            cm = CovarianceMatrix(s @ tmsv(r).matrix @ s.T)
            if _stack_witnesses(cm.matrix[None]).factored[0]:
                check_unsteerable_ab(cm)
                check_unsteerable_ba(cm)
                continue
            refused += 1
            assert not certify(cm).physical
            for check in (check_unsteerable_ab, check_unsteerable_ba):
                with pytest.raises(np.linalg.LinAlgError):
                    check(cm)
        assert refused


class TestBruteForce:
    def test_vacuum_lower_bound_and_convergence(self):
        sf = split_standard(vacuum(2))
        coarse = brute_force_min(sf, "sep_plus", GridSpec(samples=256, seed=1))
        fine = brute_force_min(sf, "sep_plus", GridSpec(samples=40_000, seed=1))
        assert coarse >= 1.0 - 1e-12
        assert fine >= 1.0 - 1e-12
        assert fine == pytest.approx(1.0, abs=1e-4)

    def test_monotone_under_refinement(self):
        sf = split_standard(random_standard(3, seed=3))
        for functional in ("sep_plus", "sep_minus", "steer_ab", "steer_ba"):
            prev = np.inf
            for samples in (256, 1024, 4096, 16384):
                got = brute_force_min(sf, functional, GridSpec(samples, seed=7))
                assert got <= prev + 1e-15
                prev = got

    def test_tmsv_steer_ab_hits_closed_form(self):
        sf = split_standard(tmsv(0.5))
        got = brute_force_min(sf, "steer_ab", GridSpec(samples=100_000, seed=0))
        assert abs(got - 0.6480542736638855) < 1e-3

    def test_deterministic(self):
        sf = split_standard(random_standard(2, seed=5))
        a = brute_force_min(sf, "sep_minus", GridSpec(samples=5000, seed=2))
        b = brute_force_min(sf, "sep_minus", GridSpec(samples=5000, seed=2))
        assert a == b

    def test_pinned_values(self):
        # exact values frozen by tests/data/freeze.py: a change to the
        # sampler's speed must not move a single draw or rounding
        assert freeze.render("sampler") == (freeze.HERE / "sampler_pins.json").read_text()

    def test_rejects_bad_inputs(self):
        sf = split_standard(vacuum(2))
        with pytest.raises(ValueError, match="samples"):
            GridSpec(samples=2)
        with pytest.raises(ValueError, match="functional"):
            brute_force_min(sf, "sep_both", GridSpec(samples=100))

    @pytest.mark.parametrize("functional", ["sep_plus", "sep_minus", "steer_ab", "steer_ba"])
    def test_monotone_across_round_boundaries(self, functional):
        # a round is 4 chains x 128 draws and a block is _BLOCK rounds;
        # budgets that end inside a round mask its tail, budgets that end
        # inside a block leave its later rounds unscored, and neither may
        # beat a larger budget
        sf = split_standard(random_standard(3, seed=11))
        block = _BLOCK * _CHAINS * _BATCH
        prev = np.inf
        for samples in (
            511, 512, 513,
            block - 1, block, block + 1,
            2 * block - 1, 2 * block + 1,
            100_000, 100_001,
        ):
            got = brute_force_min(sf, functional, GridSpec(samples, seed=5))
            assert got <= prev
            prev = got

    def test_tiny_budget(self):
        sf = split_standard(tmsv(0.5))
        for functional in ("sep_plus", "sep_minus", "steer_ab", "steer_ba"):
            got = brute_force_min(sf, functional, GridSpec(samples=3, seed=0))
            closed = {
                "sep_plus": np.exp(-1.0),
                "sep_minus": 1.0,
                "steer_ab": 1 / np.cosh(1.0),
                "steer_ba": 1 / np.cosh(1.0),
            }[functional]
            assert got == np.inf or got >= closed - 1e-9

    def test_oracle_record_byte_identical(self, capsys, tmp_path):
        from cvwitness.cli import main

        path = tmp_path / "cm.json"
        random_standard(3, seed=2).save(path)
        argv = ["oracle", str(path), "--functional", "sep_minus", "--samples", "5000", "--seed", "9"]
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert '"brute_force_min"' in runs[0][1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 1000.5},
            {"samples": True},
            {"samples": "1000"},
            {"seed": 1.0},
            {"seed": False},
        ],
    )
    def test_grid_rejects_non_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(**kwargs)


class TestOracleSandwich:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_budget_within_oracle_tol_of_closed_form(self, n, seed):
        # the oracle bounds every minimum from above and, at its default
        # budget, lands within the default --oracle-tol of it
        cm = random_standard(n, seed=seed)
        witnesses = certify(cm).witnesses
        sf = split_standard(cm)
        for functional in FUNCTIONALS:
            key, factor, _ = _ORACLE_FUNCTIONALS[functional]
            closed = factor * witnesses[key]
            brute = brute_force_min(sf, functional)
            assert closed - 1e-9 <= brute <= closed + 1e-3, (functional, brute, closed)

    def test_numeric_below_brute_above_closed(self):
        for seed in range(8):
            n = 2 + seed % 2
            cm = random_standard(n, seed=40 + seed)
            sf = split_standard(cm)
            grid = GridSpec(samples=30_000, seed=seed)
            for sign, functional in (("plus", "sep_plus"), ("minus", "sep_minus")):
                numeric = min_separability_sum_numeric(sf, sign).value
                brute = brute_force_min(sf, functional, grid)
                assert numeric <= brute + 1e-9
                if n == 2:
                    params, _ = standard_form_reduce_two_mode(cm)
                    closed = sep_closed_form(params, sign)
                    assert numeric >= closed - 1e-6
                    assert brute >= closed - 1e-6
            numeric = min_steering_sum_ab_numeric(sf).value
            brute = brute_force_min(sf, "steer_ab", grid)
            closed = min_steering_sum_ab(sf)
            assert numeric <= brute + 1e-9
            assert numeric >= closed - 1e-6
            assert brute >= closed - 1e-6


class TestDirectionEquivalence:
    def test_ab_determinant_iff_matrix_iff_minimum(self):
        # the A->B minimum crosses 1 exactly when the determinant ratio
        # crosses 1/4 exactly when the matrix condition flips
        rng = np.random.default_rng(51)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            cm = random_standard(n, seed=1000 + trial)
            sf = split_standard(cm)
            chk = check_unsteerable_ab(cm)
            minimum = min_steering_sum_ab(sf)
            if abs(chk.det_ratio - 0.25) < 1e-9 or abs(chk.min_rs_eigenvalue) < 1e-9:
                continue
            assert (minimum >= 1.0) == (chk.det_ratio >= 0.25) == chk.matrix_ok

    def test_ba_equivalence_two_modes_only(self):
        for seed in range(50):
            cm = random_two_mode_params(seed=seed).to_covariance_matrix()
            chk = check_unsteerable_ba(cm)
            if abs(chk.det_ratio - 0.25) < 1e-9:
                continue
            assert chk.matrix_ok == (chk.det_ratio >= 0.25)


class TestSignRuleProperty:
    def test_spectral_shift_follows_d_sign(self):
        for seed in range(100):
            params = random_two_mode_params(seed=seed, min_abs_d=1e-6)
            km = two_mode_symplectic_pair(params)[0]
            kmpt = two_mode_symplectic_pair_pt(params)[0]
            assert np.sign(kmpt - km) == np.sign(params.d)
