"""Acceptance suite: one test per sign-off criterion, each at its stated
tolerance, with a printed PASS line (run pytest -s to see them)."""

import json
import time

import numpy as np
from cvwitness import (
    CovarianceMatrix,
    EprWeights,
    GridSpec,
    aitken_factorize,
    brute_force_min,
    certify,
    check_unsteerable_ab,
    check_unsteerable_ba,
    euler_identity_terms,
    find_one_way_example,
    min_separability_sum_numeric,
    min_steering_sum_ab,
    min_steering_sum_ab_numeric,
    noisy_tmsv,
    partition,
    random_standard,
    random_two_mode_params,
    schur_complement,
    separability_sum,
    sign_rule_holds,
    split_standard,
    standard_form_reduce_two_mode,
    tmsv,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    validate_bona_fide,
    variance_p,
    variance_q,
)
from cvwitness.cli import main as cli_main
from freeze import generated_corpus


def nvs1_corpus(count, seed0=0):
    return [random_standard(2 + k % 3, seed=seed0 + k) for k in range(count)]


def test_criterion_1_tmsv_spectrum():
    start = time.perf_counter()
    for r in (0.1, 0.3, 0.5, 1.0, 2.0):
        params, _ = standard_form_reduce_two_mode(tmsv(r))
        nu_pt = two_mode_symplectic_pair_pt(params)[0]
        assert abs(nu_pt - np.exp(-2 * r) / 2) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: TMSV PT spectrum matches exp(-2r)/2 to 1e-9 "
          f"({elapsed:.2f}s)")


def test_criterion_2_two_mode_minimum_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        params = random_two_mode_params(seed=seed, d_sign=-1)
        sf = params.to_standard_form()
        plus = min_separability_sum_numeric(sf, "plus")
        minus = min_separability_sum_numeric(sf, "minus")
        gap_plus = abs(plus.value - 2 * two_mode_symplectic_pair_pt(params)[0])
        gap_minus = abs(minus.value - 2 * two_mode_symplectic_pair(params)[0])
        worst = max(worst, gap_plus, gap_minus)
        assert gap_plus < 1e-6
        assert gap_minus < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: numeric minima match twice the smallest "
          f"symplectic eigenvalues on 100 d<0 CMs, worst gap {worst:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_3_ab_closed_form():
    start = time.perf_counter()
    worst_closed = worst_brute = 0.0
    for k in range(100):
        cm = random_standard(2 + k % 3, seed=k)
        sf = split_standard(cm)
        numeric = min_steering_sum_ab_numeric(sf)
        closed = min_steering_sum_ab(sf)
        brute = brute_force_min(sf, "steer_ab", GridSpec(samples=100_000, seed=k))
        worst_closed = max(worst_closed, abs(numeric.value - closed))
        worst_brute = max(worst_brute, abs(numeric.value - brute))
        assert abs(numeric.value - closed) < 1e-10
        assert abs(numeric.value - brute) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 PASS: A->B minimum matches 2 sqrt(det V / det V_A) "
          f"(worst {worst_closed:.1e}) and sampling oracle (worst "
          f"{worst_brute:.1e}) on 100 CMs ({elapsed:.2f}s)")


def test_criterion_4_euler_identity():
    rng = np.random.default_rng(4)
    step = 1e-6
    worst_analytic = worst_fd = 0.0
    pairs = 0
    while pairs < 1000:
        cm = random_standard(2 + pairs % 3, seed=pairs)
        sf = split_standard(cm)
        n = sf.n_modes
        w = EprWeights(rng.uniform(0.2, 1.8, n), rng.uniform(0.2, 1.8, n))
        sign = "plus" if pairs % 2 else "minus"
        terms = euler_identity_terms(sf, w, sign)
        worst_analytic = max(
            worst_analytic,
            abs(terms.lhs_alpha - terms.rhs),
            abs(terms.lhs_beta - terms.rhs),
        )
        # central finite differences of the radial derivatives
        fd_alpha = (
            separability_sum(sf, EprWeights((1 + step) * w.alpha, w.beta), sign)
            - separability_sum(sf, EprWeights((1 - step) * w.alpha, w.beta), sign)
        ) / (2 * step)
        fd_beta = -(
            separability_sum(sf, EprWeights(w.alpha, (1 + step) * w.beta), sign)
            - separability_sum(sf, EprWeights(w.alpha, (1 - step) * w.beta), sign)
        ) / (2 * step)
        worst_fd = max(worst_fd, abs(fd_alpha - terms.rhs), abs(fd_beta - terms.rhs))
        pairs += 1
    assert worst_analytic < 1e-10
    assert worst_fd < 1e-4
    print(f"ACCEPTANCE 4 PASS: homogeneity identity to {worst_analytic:.1e} "
          f"analytic, {worst_fd:.1e} vs finite differences on 1000 pairs")


def test_criterion_5_extremum_condition():
    worst = 0.0
    checked = 0
    for seed in range(40):
        if seed % 2:
            sf = random_two_mode_params(seed=seed).to_standard_form()
        else:
            sf = split_standard(random_standard(2 + seed % 3, seed=seed))
        for sign in ("plus", "minus"):
            res = min_separability_sum_numeric(sf, sign)
            if not res.converged:
                continue
            checked += 1
            dq2 = variance_q(sf.vq, res.argmin_alpha)
            dp2 = variance_p(sf.vp, res.argmin_beta, sign)
            gap = abs(dq2 - dp2) / (dq2 + dp2)
            worst = max(worst, gap)
            assert gap < 1e-6
    assert checked >= 70
    print(f"ACCEPTANCE 5 PASS: variance balance at {checked} converged minima, "
          f"worst relative gap {worst:.1e}")


def test_criterion_6_sign_rule():
    violations = 0
    for seed in range(100):
        params = random_two_mode_params(seed=seed, min_abs_d=1e-6)
        if not sign_rule_holds(params):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 6 PASS: PT spectral shift follows sgn(d) on 100 CMs, "
          "zero violations")


def _near_boundary_cases():
    # Alice-side noise nbar = 1/2 puts det V / det V_A exactly at 1/4; the
    # offset delta moves the ratio by (b - 1/2)/(b + 1/2) * delta
    cases = []
    for i, r in enumerate(np.linspace(0.3, 1.2, 23)):
        for sgn in (+1, -1):
            cases.append((r, 0.5 + sgn * 1e-6, sgn))
    cases.append((0.5, 0.5 + 1e-9, 0))   # inside the dead band
    cases.append((0.5, 0.5 - 1e-9, 0))
    cases.append((0.5, 0.5 + 2e-6, +1))
    cases.append((0.5, 0.5 - 2e-6, -1))
    return cases[:50]


def test_criterion_7_ab_matrix_determinant_equivalence():
    tol = 1e-9
    for cm in nvs1_corpus(1000):
        chk = check_unsteerable_ab(cm, tol=tol)
        det_steer = chk.det_ratio < 0.25 - tol
        mat_steer = chk.min_rs_eigenvalue < -tol
        in_band = abs(chk.det_ratio - 0.25) <= tol or abs(chk.min_rs_eigenvalue) <= tol
        if not in_band:
            assert det_steer == mat_steer
        verdict = certify(cm, tol=tol)
        assert verdict.steerable_a_to_b == det_steer

    near = _near_boundary_cases()
    assert len(near) == 50
    for r, nbar, expect in near:
        cm = noisy_tmsv(r, nbar, "A")
        chk = check_unsteerable_ab(cm, tol=tol)
        assert abs(chk.det_ratio - 0.25) < 1e-6
        verdict = certify(cm, tol=tol)
        if expect == 0:
            assert "marginal_ab" in verdict.witnesses
            assert not verdict.steerable_a_to_b
        else:
            det_steer = chk.det_ratio < 0.25 - tol
            mat_steer = chk.min_rs_eigenvalue < -tol
            assert det_steer == mat_steer == (expect < 0)
            assert verdict.steerable_a_to_b == det_steer
    print("ACCEPTANCE 7 PASS: A->B determinant and matrix forms agree on 1000 "
          "CMs and 50 near-boundary cases with the dead band honored")


def test_criterion_8_ba_strictness():
    for cm in nvs1_corpus(500, seed0=2000) + generated_corpus():
        if cm.n_modes < 2:
            continue
        chk = check_unsteerable_ba(cm, tol=1e-9)
        if chk.matrix_ok:
            assert chk.det_ok

    # stored counterexample: a thermal mode stacked on a TMSV pair gives a
    # Schur complement with symplectic spectrum {2b, 1/(4b)} whose
    # determinant stays comfortably above 2^-4
    r = 0.5
    b = np.cosh(2 * r) / 2
    m = np.zeros((6, 6))
    m[:2, :2] = 2 * b * np.eye(2)
    m[2:, 2:] = tmsv(r).matrix
    stored = CovarianceMatrix(m)
    assert validate_bona_fide(stored).bona_fide
    chk = check_unsteerable_ba(stored, tol=1e-9)
    assert chk.det_ok and not chk.matrix_ok
    print("ACCEPTANCE 8 PASS: matrix condition implies determinant condition "
          "everywhere; stored N=2 example separates them")


def test_criterion_9_structural_identities():
    for cm in generated_corpus():
        m = cm.matrix
        n = cm.n_modes
        det_v = np.linalg.det(m)
        # determinant factorization over the q/p blocks
        sf = split_standard(cm)
        det_blocks = np.linalg.det(sf.vq) * np.linalg.det(sf.vp)
        assert abs(det_v - det_blocks) / abs(det_v) < 1e-12
        # Williamson bound
        assert det_v >= 2.0 ** (-2 * n) - 1e-12
        if cm.n_modes < 2:
            continue
        # Schur determinant formula, both eliminations
        part = partition(cm)
        for over, block in (("B", part.bob), ("A", part.alice)):
            lhs = np.linalg.det(schur_complement(cm, over))
            rhs = det_v / np.linalg.det(block)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12
        # congruence reconstruction
        t, d = aitken_factorize(cm)
        resid = np.abs(t @ d @ t.T - m).max()
        assert resid < 1e-12 * max(np.abs(m).max(), 1.0)
    print("ACCEPTANCE 9 PASS: determinant factorization, Schur formula, "
          "congruence reconstruction and Williamson bound at 1e-12")


def test_criterion_10_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    expected_ratio = 1 / (4 * np.cosh(1.0) ** 2)

    verdict = certify(tmsv(0.5))
    assert verdict.steerable_a_to_b and verdict.steerable_b_to_a
    assert abs(verdict.witnesses["det_ratio_ab"] - expected_ratio) < 1e-9

    path = tmp_path / "tmsv.json"
    tmsv(0.5).save(path)
    code = cli_main(["certify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["steerable_a_to_b"] is True
    assert report["verdict"]["steerable_b_to_a"] is True
    assert abs(report["verdict"]["witnesses"]["det_ratio_ab"] - expected_ratio) < 1e-9

    example = find_one_way_example()
    v = certify(example)
    assert v.steerable_a_to_b != v.steerable_b_to_a

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 10 PASS: end-to-end TMSV certification and one-way "
          f"example search ({elapsed:.2f}s)")
