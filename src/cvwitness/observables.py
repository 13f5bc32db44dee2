"""Variances, commutator bounds and normalized uncertainty sums of the
nonlocal EPR-like observables.

The observable pair couples Alice's N modes to Bob's single mode with
weight vectors (alpha, beta) of length N+1:

    Q(alpha) = sum_j alpha_j q_j - alpha_{N+1} q_{N+1}
    P+-(beta) = sum_j beta_j p_j +- beta_{N+1} p_{N+1}

Both variances are quadratic forms in the weights built from the q- and
p-blocks of a standard-form CM; all evaluation here therefore consumes
``StandardForm`` inputs. The three normalized sums divide the total
uncertainty by the commutator scale relevant to separability
(sum alpha_l beta_l), Alice-to-Bob unsteerability (alpha_{N+1} beta_{N+1})
and Bob-to-Alice unsteerability (sum over Alice pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import StandardForm

__all__ = [
    "SIGN_VARIANTS",
    "MIN_WEIGHT",
    "EprWeights",
    "UncertaintySumCheck",
    "ReidProduct",
    "EulerTerms",
    "variance_q",
    "variance_p",
    "commutator_bound",
    "uncertainty_sum_check",
    "reid_product",
    "separability_sum",
    "steering_sum_ab",
    "steering_sum_ba",
    "separability_sum_gradient",
    "euler_identity_terms",
]

SIGN_VARIANTS = ("plus", "minus")

# strict-positivity floor enforced on weight vectors at construction
MIN_WEIGHT = 1e-12

# slack on the uncertainty-sum bound and on Reid's 1/2 threshold
_RELATION_TOL = 1e-12


def _check_sign(sign: str) -> str:
    if sign not in SIGN_VARIANTS:
        raise ValueError(f"sign must be one of {SIGN_VARIANTS}, got {sign!r}")
    return sign


@dataclass(frozen=True)
class EprWeights:
    """Strictly positive weight vectors (alpha, beta) of equal length N+1."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.ndim != 1 or beta.ndim != 1 or alpha.size != beta.size:
            raise ValueError("alpha and beta must be 1-D vectors of equal length")
        if alpha.size < 2:
            raise ValueError("weight vectors need at least two components")
        if alpha.min() < MIN_WEIGHT or beta.min() < MIN_WEIGHT:
            raise ValueError(
                f"weights must be strictly positive (floor {MIN_WEIGHT:.0e})"
            )

    def __len__(self) -> int:
        return self.alpha.size


class UncertaintySumCheck(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


class ReidProduct(NamedTuple):
    product: float
    bound: float
    paradox: bool


class EulerTerms(NamedTuple):
    lhs_alpha: float
    lhs_beta: float
    rhs: float


def _flip_last(w) -> np.ndarray:
    v = np.array(w, dtype=float)
    v[-1] = -v[-1]
    return v


def _match(sf: StandardForm, w: np.ndarray, name: str) -> None:
    if w.shape != (sf.n_modes,):
        raise ValueError(
            f"{name} has length {w.shape[0] if w.ndim == 1 else w.shape}, "
            f"expected {sf.n_modes}"
        )


def variance_q(vq: np.ndarray, alpha) -> float:
    """Variance of Q(alpha) as a quadratic form on the q-block.

    The minus sign on the Bob component means the form is evaluated with
    the last weight negated; equivalently the q-block with the sign of
    its last row/column off-diagonals flipped.
    """
    vq = np.asarray(vq, dtype=float)
    a = _flip_last(alpha)
    if a.shape[0] != vq.shape[0]:
        raise ValueError(f"weight length {a.shape[0]} != block size {vq.shape[0]}")
    return float(a @ vq @ a)


def variance_p(vp: np.ndarray, beta, sign: str = "plus") -> float:
    """Variance of P+(beta) or P-(beta) as a quadratic form on the p-block."""
    _check_sign(sign)
    vp = np.asarray(vp, dtype=float)
    b = np.array(beta, dtype=float) if sign == "plus" else _flip_last(beta)
    if b.shape[0] != vp.shape[0]:
        raise ValueError(f"weight length {b.shape[0]} != block size {vp.shape[0]}")
    return float(b @ vp @ b)


def commutator_bound(alpha, beta, sign: str = "plus") -> float:
    """|[Q, P+-]| scale: |sum_{j<=N} alpha_j beta_j -+ alpha_{N+1} beta_{N+1}|."""
    _check_sign(sign)
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if a.shape != b.shape:
        raise ValueError("alpha and beta must have equal length")
    inner = a[:-1] @ b[:-1]
    tail = a[-1] * b[-1]
    return float(abs(inner - tail)) if sign == "plus" else float(abs(inner + tail))


def uncertainty_sum_check(
    sf: StandardForm, weights: EprWeights, sign: str = "plus"
) -> UncertaintySumCheck:
    """Sum-form uncertainty relation: Delta Q^2 + Delta P^2 >= |commutator|.

    Holds for every physical state and any positive weights.
    """
    lhs = variance_q(sf.vq, weights.alpha) + variance_p(sf.vp, weights.beta, sign)
    rhs = commutator_bound(weights.alpha, weights.beta, sign)
    return UncertaintySumCheck(lhs=lhs, rhs=rhs, satisfied=bool(lhs >= rhs - _RELATION_TOL))


def reid_product(sf: StandardForm, lam: float, mu: float) -> ReidProduct:
    """Reid's inferred-variance product Delta Q(lam) * Delta P(mu) for a
    two-mode state, with the Heisenberg bound |1 - lam*mu| / 2.

    A product below 1/2 flags the EPR paradox.
    """
    if sf.n_modes != 2:
        raise ValueError("the Reid product is defined for two-mode states")
    if lam <= 0 or mu <= 0:
        raise ValueError("inference gains must be positive")
    dq = np.sqrt(variance_q(sf.vq, [1.0, lam]))
    dp = np.sqrt(variance_p(sf.vp, [1.0, mu], "plus"))
    product = float(dq * dp)
    bound = abs(1.0 - lam * mu) / 2
    return ReidProduct(product=product, bound=bound, paradox=bool(product < 0.5 - _RELATION_TOL))


def separability_sum(sf: StandardForm, weights: EprWeights, sign: str = "plus") -> float:
    """Uncertainty sum normalized by sum_l alpha_l beta_l.

    Separable states keep this >= 1 for all positive weights; its minimum
    over the weights is the separability witness.
    """
    _match(sf, weights.alpha, "alpha")
    num = variance_q(sf.vq, weights.alpha) + variance_p(sf.vp, weights.beta, sign)
    return float(num / (weights.alpha @ weights.beta))


def steering_sum_ab(sf: StandardForm, weights: EprWeights) -> float:
    """Uncertainty sum normalized by alpha_{N+1} beta_{N+1}; values below 1
    witness Alice-to-Bob steerability."""
    _match(sf, weights.alpha, "alpha")
    num = variance_q(sf.vq, weights.alpha) + variance_p(sf.vp, weights.beta, "plus")
    return float(num / (weights.alpha[-1] * weights.beta[-1]))


def steering_sum_ba(sf: StandardForm, weights: EprWeights) -> float:
    """Uncertainty sum normalized by sum_{j<=N} alpha_j beta_j; values below
    1 witness Bob-to-Alice steerability."""
    _match(sf, weights.alpha, "alpha")
    den = weights.alpha[:-1] @ weights.beta[:-1]
    num = variance_q(sf.vq, weights.alpha) + variance_p(sf.vp, weights.beta, "plus")
    return float(num / den)


def _signed_forms(sf: StandardForm, sign: str) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form matrices (Mq, Mp) with the Bob-sign flips absorbed,
    so Delta Q^2 = a' Mq a and Delta P^2 = b' Mp b on plain vectors."""
    n = sf.n_modes
    f = np.ones(n)
    f[-1] = -1.0
    mq = sf.vq * np.outer(f, f)
    mp = sf.vp if sign == "plus" else sf.vp * np.outer(f, f)
    return mq, mp


def separability_sum_gradient(
    sf: StandardForm, alpha, beta, sign: str = "plus"
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient of the separability sum with respect to the
    weights (quotient rule over the quadratic forms)."""
    _check_sign(sign)
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    mq, mp = _signed_forms(sf, sign)
    den = a @ b
    num = a @ mq @ a + b @ mp @ b
    grad_a = (2.0 * mq @ a) / den - num * b / den**2
    grad_b = (2.0 * mp @ b) / den - num * a / den**2
    return grad_a, grad_b


def euler_identity_terms(
    sf: StandardForm, weights: EprWeights, sign: str = "plus"
) -> EulerTerms:
    """Homogeneity identity diagnostics for the separability sum.

    The numerator is quadratic in each weight vector while the denominator
    is bilinear, so the two radial derivatives collapse to one quantity:

        sum_j alpha_j d/d alpha_j = -sum_j beta_j d/d beta_j
                                  = (Delta Q^2 - Delta P^2) / sum_l alpha_l beta_l

    All three returned terms must agree to numerical precision; at an
    interior minimum they vanish (the two variances balance).
    """
    a, b = weights.alpha, weights.beta
    grad_a, grad_b = separability_sum_gradient(sf, a, b, sign)
    lhs_alpha = float(a @ grad_a)
    lhs_beta = float(-(b @ grad_b))
    dq2 = variance_q(sf.vq, a)
    dp2 = variance_p(sf.vp, b, sign)
    rhs = float((dq2 - dp2) / (a @ b))
    return EulerTerms(lhs_alpha=lhs_alpha, lhs_beta=lhs_beta, rhs=rhs)
