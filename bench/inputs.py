"""Covariance matrices the benchmark builds from a seed, with known
symplectic spectra or exact parameters. Numpy only."""

from __future__ import annotations

import numpy as np


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def standard_cm(rng, nu) -> np.ndarray:
    """Standard-form CM with symplectic spectrum ``nu``: V = S (D + D) S^T
    with S = A (+) A^-T in block ordering and cond(A) <= e^2."""
    nu = np.asarray(nu, dtype=float)
    n = nu.size
    a = _orthogonal(rng, n) @ np.diag(np.exp(rng.uniform(-1.0, 1.0, n))) @ _orthogonal(rng, n)
    a_inv = np.linalg.inv(a)
    v = np.zeros((2 * n, 2 * n))
    v[0::2, 0::2] = a @ np.diag(nu) @ a.T
    v[1::2, 1::2] = a_inv.T @ np.diag(nu) @ a_inv
    return 0.5 * (v + v.T)


def tmsv_cm(r: float, noise_a: float = 0.0, noise_b: float = 0.0) -> np.ndarray:
    """Two-mode squeezed vacuum plus classical noise on either side."""
    b = np.cosh(2.0 * r) / 2.0
    c = np.sinh(2.0 * r) / 2.0
    return np.array(
        [
            [b + noise_a, 0.0, c, 0.0],
            [0.0, b + noise_a, 0.0, -c],
            [c, 0.0, b + noise_b, 0.0],
            [0.0, -c, 0.0, b + noise_b],
        ]
    )


def local_symplectic(rng) -> np.ndarray:
    """Random phase rotation times squeeze (|z| <= 1) on each of two modes."""
    s = np.zeros((4, 4))
    for k in (0, 2):
        t = rng.uniform(0.0, np.pi)
        z = rng.uniform(-1.0, 1.0)
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        s[k : k + 2, k : k + 2] = rot @ np.diag([np.exp(z), np.exp(-z)])
    return s


def spectrum(rng, n: int, pure: bool = False) -> np.ndarray:
    """Symplectic spectrum in [1/2, 3], one value in the middle quarter of
    each of n equal slices, in random order. Stratifying keeps neighbours
    apart, so the minimizers' convergence rate, which falls as the two
    smallest eigenvalues of their eigenproblem approach, varies less
    from seed to seed. ``pure`` sets one value to exactly 1/2."""
    nu = 0.5 + 2.5 * (np.arange(n) + 0.375 + 0.25 * rng.uniform(0.0, 1.0, n)) / n
    if pure:
        nu[0] = 0.5
    return rng.permutation(nu)
