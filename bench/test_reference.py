"""Checks of the benchmark's reference module against analytic values.

Run with:  python3 -m pytest bench/test_reference.py
"""

import numpy as np
import pytest

import inputs
import reference as ref


def tmsv(r):
    return inputs.tmsv_cm(r)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5, 5.0])
def test_tmsv_spectrum_and_partial_transpose(r):
    nu = ref.symplectic_spectrum(tmsv(r))
    assert np.allclose(nu, 0.5, rtol=1e-9)
    nu_pt = ref.symplectic_spectrum(ref.partial_transpose(tmsv(r)))
    assert nu_pt[0] == pytest.approx(np.exp(-2 * r) / 2, rel=1e-6)
    assert nu_pt[1] == pytest.approx(np.exp(2 * r) / 2, rel=1e-9)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.7, 4.0])
def test_tmsv_determinant_ratios(r):
    want = 1.0 / (4.0 * np.cosh(2 * r) ** 2)
    assert ref.det_ratio(tmsv(r), "A") == pytest.approx(want, rel=1e-9)
    assert ref.det_ratio(tmsv(r), "B") == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 7.0, 11.0])
def test_tmsv_closed_forms(r):
    out = ref.noisy_tmsv_closed_forms(r, 0.0, 0.0)
    assert out["nu_min"] == pytest.approx(0.5, rel=1e-12)
    assert out["nu_min_pt"] == pytest.approx(np.exp(-2 * r) / 2, rel=1e-12)
    assert out["det_ratio_ab"] == pytest.approx(1.0 / (4.0 * np.cosh(2 * r) ** 2), rel=1e-12)


def test_spectrum_of_built_state():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        nu = rng.uniform(0.5, 3.0, n)
        v = inputs.standard_cm(rng, nu)
        assert np.allclose(ref.symplectic_spectrum(v), np.sort(nu), rtol=1e-10)


def test_local_symplectic_keeps_spectrum_and_invariants():
    rng = np.random.default_rng(3)
    v = inputs.standard_cm(rng, [0.7, 1.9])
    s = inputs.local_symplectic(rng)
    w = s @ v @ s.T
    assert np.allclose(ref.symplectic_spectrum(w), ref.symplectic_spectrum(v), rtol=1e-10)
    assert np.allclose(ref.two_mode_invariants(w), ref.two_mode_invariants(v), rtol=1e-9)


def test_closed_forms_match_matrix_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = inputs.standard_cm(rng, rng.uniform(0.5, 3.0, 2))
        closed = ref.two_mode_closed_forms(*ref.two_mode_invariants(v))
        assert closed["nu_min"] == pytest.approx(ref.symplectic_spectrum(v)[0], rel=1e-9)
        pt = ref.symplectic_spectrum(ref.partial_transpose(v))[0]
        assert closed["nu_min_pt"] == pytest.approx(pt, rel=1e-9)
        assert closed["det_ratio_ab"] == pytest.approx(ref.det_ratio(v, "A"), rel=1e-9)
        assert closed["det_ratio_ba"] == pytest.approx(ref.det_ratio(v, "B"), rel=1e-9)


@pytest.mark.parametrize("r,noise_a,noise_b", [(0.4, 0.3, 0.0), (1.1, 0.0, 2.5), (6.0, 1e6, 0.0), (3.0, 0.0, 1e-2)])
def test_noisy_closed_forms_match_matrix_route(r, noise_a, noise_b):
    v = inputs.tmsv_cm(r, noise_a, noise_b)
    want = ref.noisy_tmsv_closed_forms(r, noise_a, noise_b)
    rel = 64 * ref.EPS * ref.condition_number(v)
    assert ref.symplectic_spectrum(v)[0] == pytest.approx(want["nu_min"], rel=rel)
    assert ref.det_ratio(v, "A") == pytest.approx(want["det_ratio_ab"], rel=rel)


def test_min_rs_eig():
    assert ref.min_rs_eig(0.5 * np.eye(6)) == pytest.approx(0.0, abs=1e-15)
    # a thermal mode of variance b has V + iJ/2 eigenvalues b -+ 1/2
    assert ref.min_rs_eig(np.diag([2.0, 2.0, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
    assert ref.min_rs_eig(np.diag([2.0, 2.0, 0.9, 0.9])) == pytest.approx(0.4)
    assert ref.min_rs_eig(0.4 * np.eye(4)) == pytest.approx(-0.1)


def test_schur_rs_min():
    # product state: V/V_B is Alice's block
    assert ref.schur_rs_min(np.diag([1.5, 1.5, 0.7, 0.7])) == pytest.approx(1.0)
    # TMSV: V/V_B = I / (4b) with b = cosh(2r)/2
    r = 0.8
    b = np.cosh(2 * r) / 2
    assert ref.schur_rs_min(tmsv(r)) == pytest.approx(1 / (4 * b) - 0.5, rel=1e-12)


def test_normalized_sum_at_known_weights():
    r = 0.6
    vq, vp = ref.block_split(tmsv(r))
    ones = np.ones(2)
    # Q = q_A - q_B and P = p_A + p_B each have variance e^{-2r}
    var_q, var_p, value = ref.normalized_sum(vq, vp, "sep_plus", ones, ones)
    assert var_q == pytest.approx(np.exp(-2 * r))
    assert var_p == pytest.approx(np.exp(-2 * r))
    assert value == pytest.approx(np.exp(-2 * r))  # gauge a.b = 2
    _, _, value_ab = ref.normalized_sum(vq, vp, "steer_ab", ones, ones)
    assert value_ab == pytest.approx(2 * np.exp(-2 * r))
    _, _, value_ba = ref.normalized_sum(vq, vp, "steer_ba", ones, ones)
    assert value_ba == pytest.approx(2 * np.exp(-2 * r))
    var_q, var_p, _ = ref.normalized_sum(vq, vp, "sep_minus", ones, ones)
    assert var_p == pytest.approx(np.exp(2 * r))


def test_normalized_sum_minimum_is_twice_nu_pt():
    # for a standard-form CM the separability sum's infimum is 2 nu~_min,
    # reached on the eigenvector pair of Mq Mp
    rng = np.random.default_rng(5)
    v = inputs.standard_cm(rng, [0.6, 1.4, 2.2])
    vq, vp = ref.block_split(v)
    mq, mp, _ = ref.functional_forms(vq, vp, "sep_plus")
    w, vecs = np.linalg.eig(mq @ mp)
    k = int(np.argmin(w.real))
    b = vecs[:, k].real
    a = mp @ b
    a = a * np.sqrt((b @ mp @ b) / (a @ mq @ a))  # balance the two variances
    _, _, value = ref.normalized_sum(vq, vp, "sep_plus", a, b)
    want = 2 * ref.symplectic_spectrum(ref.partial_transpose(v))[0]
    assert abs(value) == pytest.approx(want, rel=1e-9)


def test_flag_zone():
    assert ref.flag_zone(0.7, 0.5, 1e-9, 1e-12) == "above"
    assert ref.flag_zone(0.2, 0.5, 1e-9, 1e-12) == "below"
    assert ref.flag_zone(0.5, 0.5, 1e-9, 1e-12) == "band"
    assert ref.flag_zone(0.5 + 1e-9, 0.5, 1e-9, 1e-12) == "unsure"
