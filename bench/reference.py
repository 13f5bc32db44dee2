"""Reference quantities the benchmark computes itself, without cvwitness.

Conventions match the program's: hbar = 1, vacuum variance 1/2, matrices
in mode-interleaved ordering (q1, p1, q2, p2, ...), Bob holds the last
mode. Every route here differs from the program's where a choice exists:
symplectic spectra come from the Hermitian matrix i L^T J L with
V = L L^T (the program diagonalizes the non-symmetric J V), determinants
come from ``slogdet`` and two-mode values from the symplectic invariants.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def symplectic_form(n_modes: int) -> np.ndarray:
    """J = diag([[0, 1], [-1, 0]], ...) in interleaved ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_spectrum(v: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite CM, ascending.

    With V = L L^T the Hermitian matrix i L^T J L is similar to i J V, so
    its eigenvalues are the pairs +-nu; the upper half is the spectrum.
    """
    n = v.shape[0] // 2
    low = np.linalg.cholesky(v)
    herm = 1j * (low.T @ symplectic_form(n) @ low)
    return np.linalg.eigvalsh(herm)[n:]


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Flip the sign of Bob's momentum row and column."""
    out = np.array(v, dtype=float)
    out[-1, :] *= -1.0
    out[:, -1] *= -1.0
    return out


def min_rs_eig(v: np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2) J (>= 0 exactly for a physical CM)."""
    n = v.shape[0] // 2
    return float(np.linalg.eigvalsh(v + 0.5j * symplectic_form(n)).min())


def _logdet(m: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return float(logdet)


def det_ratio(v: np.ndarray, over: str) -> float:
    """det V / det V_X for X = Alice ("A", all but the last mode) or Bob ("B")."""
    k = v.shape[0] - 2
    block = v[:k, :k] if over == "A" else v[k:, k:]
    return float(np.exp(_logdet(v) - _logdet(block)))


def schur_rs_min(v: np.ndarray) -> float:
    """Smallest eigenvalue of V/V_B + (i/2) J_A; negative means Bob can
    steer Alice (the Wiseman-Jones-Doherty matrix condition)."""
    k = v.shape[0] - 2
    va, vb, c = v[:k, :k], v[k:, k:], v[:k, k:]
    schur = va - c @ np.linalg.solve(vb, c.T)
    return min_rs_eig(0.5 * (schur + schur.T))


def schur_norm(v: np.ndarray) -> float:
    """Spectral norm of V/V_B, the scale of ``schur_rs_min``."""
    k = v.shape[0] - 2
    va, vb, c = v[:k, :k], v[k:, k:], v[:k, k:]
    return float(np.abs(np.linalg.eigvalsh(va - c @ np.linalg.solve(vb, c.T))).max())


def condition_number(v: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive-definite matrix."""
    w = np.linalg.eigvalsh(v)
    return float(w[-1] / w[0]) if w[0] > 0 else float("inf")


def two_mode_invariants(v: np.ndarray) -> tuple[float, float, float, float]:
    """(det V_A, det V_B, det C, det V) of a two-mode CM; all four are
    invariant under local symplectics."""
    return (
        float(np.linalg.det(v[:2, :2])),
        float(np.linalg.det(v[2:, 2:])),
        float(np.linalg.det(v[:2, 2:])),
        float(np.exp(_logdet(v))),
    )


def _nu_minus(delta: float, det_v: float) -> float:
    """Smaller symplectic eigenvalue of a two-mode CM from its invariant
    Delta and det V: nu_-^2 = (Delta - sqrt(Delta^2 - 4 det V)) / 2,
    evaluated as 2 det V / (Delta + sqrt(...)) to avoid cancellation."""
    root = np.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
    return float(np.sqrt(2.0 * det_v / (delta + root)))


def two_mode_closed_forms(a: float, b: float, c: float, det_v: float) -> dict:
    """Smallest symplectic eigenvalue of the CM (Delta = A + B + 2C) and of
    its partial transpose (Delta = A + B - 2C), and both determinant
    ratios, from the invariants (A, B, C, det V)."""
    return {
        "nu_min": _nu_minus(a + b + 2.0 * c, det_v),
        "nu_min_pt": _nu_minus(a + b - 2.0 * c, det_v),
        "det_ratio_ab": det_v / a,
        "det_ratio_ba": det_v / b,
    }


def noisy_tmsv_closed_forms(r: float, noise_a: float, noise_b: float) -> dict:
    """Closed forms for a two-mode squeezed vacuum with noise_a, noise_b
    added to Alice's and Bob's local variances, from the exact parameters
    b = cosh(2r)/2, c = sinh(2r)/2. The invariants are A = (b + noise_a)^2,
    B = (b + noise_b)^2, C = -c^2; using b^2 - c^2 = 1/4 exactly keeps
    every term free of cancellation at large r."""
    b = np.cosh(2.0 * r) / 2.0
    c = np.sinh(2.0 * r) / 2.0
    sqrt_det = 0.25 + b * (noise_a + noise_b) + noise_a * noise_b
    det_v = sqrt_det * sqrt_det
    spread = noise_a * noise_a + noise_b * noise_b + 2.0 * b * (noise_a + noise_b)
    return {
        "nu_min": _nu_minus(spread + 0.5, det_v),
        "nu_min_pt": _nu_minus(spread + 2.0 * b * b + 2.0 * c * c, det_v),
        "det_ratio_ab": det_v / (b + noise_a) ** 2,
        "det_ratio_ba": det_v / (b + noise_b) ** 2,
    }


def functional_forms(vq: np.ndarray, vp: np.ndarray, functional: str):
    """(Mq, Mp, W) with Var Q = a' Mq a, Var P = b' Mp b and gauge a' W b.

    Q = sum_j a_j q_j - a_B q_B; P = sum_j b_j p_j + b_B p_B, or with
    - b_B p_B for ``sep_minus``. W is the identity for separability, the
    Bob corner for A->B steering and Alice's identity for B->A steering.
    """
    n = vq.shape[0]
    flip = np.ones(n)
    flip[-1] = -1.0
    mq = vq * np.outer(flip, flip)
    mp = vp * np.outer(flip, flip) if functional == "sep_minus" else np.array(vp)
    w = np.eye(n)
    if functional == "steer_ab":
        w = np.zeros((n, n))
        w[-1, -1] = 1.0
    elif functional == "steer_ba":
        w[-1, -1] = 0.0
    elif functional not in ("sep_plus", "sep_minus"):
        raise ValueError(f"unknown functional {functional!r}")
    return mq, mp, w


def normalized_sum(vq, vp, functional: str, a, b) -> tuple[float, float, float]:
    """(Var Q, Var P, value) of a normalized uncertainty sum at the weight
    pair (a, b); value = (Var Q + Var P) / (a' W b)."""
    mq, mp, w = functional_forms(np.asarray(vq), np.asarray(vp), functional)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    var_q = float(a @ mq @ a)
    var_p = float(b @ mp @ b)
    return var_q, var_p, (var_q + var_p) / float(a @ w @ b)


def block_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum blocks of a standard-form CM."""
    return v[0::2, 0::2], v[1::2, 1::2]


def flag_zone(x: float, threshold: float, tol: float, err: float) -> str:
    """Where a witness x sits relative to a threshold with dead band tol,
    given an absolute error bound err on x: "above", "below", "band"
    (the program must mark it marginal) or "unsure" (no claim)."""
    gap = x - threshold
    if gap > tol + err:
        return "above"
    if gap < -(tol + err):
        return "below"
    if abs(gap) < tol - err:
        return "band"
    return "unsure"
