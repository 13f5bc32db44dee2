"""Extremal normalized uncertainty sums.

On a standard-form CM every minimum has a closed form in local
invariants, which ``criteria.certify`` reports for any number of Alice
modes: twice the smallest symplectic eigenvalue of the partial
transpose (plus separability sum), of the CM (minus sum) and of the
Schur complement V/V_B (B->A steering sum), and 2*sqrt(det V / det V_A)
(A->B). This module evaluates the A->B form directly (the two-mode
separability forms are ``covariance.two_mode_symplectic_pair`` and its
partial transpose); one numeric solver recovers all four minima
independently, with the weights that attain them, and the sampling
oracle bounds them from above.

The four functionals of ``FUNCTIONALS`` share the shape

    (a' Mq a + b' Mp b) / (a' W b)

for a gauge bilinear form W (identity for separability, a rank-one
corner for A->B, Alice's diagonal for B->A). ``observables.functional_forms``
builds (Mq, Mp, W) and refuses a one-mode form, and one gauge solver
minimizes every functional. Minimization runs on the gauge surface
a' W b = 1 without sign restrictions: the stationary points there
reproduce the closed forms, whereas restricting weights to the positive
orthant provably loses them on covariance matrices whose cross
correlations have unfavorable signs (the reported minimizer makes this
visible through ``boundary_flag``).

The solver has no settings. Each minimum is exactly 2 / sigma_max of the
whitened gauge G = Mq^(-1/2) W Mp^(-1/2), attained at G's top singular
pair (u, v) mapped back to the weights: a = Mq^(-1/2) u / sqrt(sigma_max)
and b = Mp^(-1/2) v / sqrt(sigma_max). These lie on the gauge surface
with the two variances equal to 1 / sigma_max, as at any true extremum,
at every scale of the forms. The solver reads them off in one step and
reports the functional there; it flags a weight at or below 1e-10 as
leaving the positive orthant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import (
    CovarianceMatrix,
    StandardForm,
    _as_cm,
    _band,
    _decide,
    _require_bipartite,
    _require_int,
    resolve_tolerance,
    schur_complement,
)
from .observables import FUNCTIONALS, _check_sign, functional_forms

__all__ = [
    "FUNCTIONALS",
    "MinimizationResult",
    "GridSpec",
    "UnsteerabilityCheck",
    "min_separability_sum_numeric",
    "min_steering_sum_ab",
    "min_steering_sum_ab_numeric",
    "min_steering_sum_ba_numeric",
    "check_unsteerable_ab",
    "check_unsteerable_ba",
    "brute_force_min",
]


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of a normalized-sum minimization.

    ``value`` is the functional evaluated at (argmin_alpha, argmin_beta).
    ``boundary_flag`` is set when the minimizer is not strictly inside
    the positive weight orthant (a component at or below the positivity
    floor, or negative), i.e. when the infimum over strictly positive
    weights may exceed the reported value. The weights are the exact
    minimizer on the gauge surface, read off in one step from one start,
    so ``converged``, ``iterations`` and ``restarts_used`` are the class
    constants True, 0 and 1.
    """

    value: float
    argmin_alpha: np.ndarray
    argmin_beta: np.ndarray
    boundary_flag: bool
    converged = True
    iterations = 0
    restarts_used = 1


@dataclass(frozen=True)
class GridSpec:
    """Sampling budget for the brute-force search (deterministic per seed)."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _require_int("samples", self.samples, 3)
        _require_int("seed", self.seed, 0)


class UnsteerabilityCheck(NamedTuple):
    """Matrix and determinant unsteerability tests for one direction.

    ``matrix_ok`` is the Schur-complement physicality condition (exact);
    ``det_ok`` is the determinant-ratio condition, which the matrix
    condition implies but which is strictly weaker for a multimode
    Alice. ``min_rs_eigenvalue`` is the matrix test's margin: the least
    eigenvalue of V/V_X + (i/2) J_X, for B->A in Williamson normal form,
    nu_min(V/V_B) - 1/2, which no local symplectic moves. Every test but
    A->B's ``matrix_ok`` is ``certify``'s, its kernel's witnesses as Python
    floats and its verdict rules with the same band (``covariance._decide``):
    A->B ``det_ok`` and B->A ``matrix_ok`` are its steering flags negated,
    ``det_ratio`` its ``det_ratio_ab`` or ``det_ratio_ba``; A->B's
    ``matrix_ok`` reads V/V_A's entries (``_ab_rs_eigenvalue``) within the
    same band. LinAlgError if ``certify`` cannot factor V;
    ``schur_complement`` gives V/V_X itself.
    """

    matrix_ok: bool
    det_ok: bool
    det_ratio: float
    min_rs_eigenvalue: float


# the solver's fixed settings: the relative rounding within which a
# singular value of the whitened gauge counts as sigma_max and the start's
# projection as vanishing, and the weight at or below which a minimizer
# counts as outside the positive orthant
_TOP_TOL = 16 * np.finfo(float).eps
_POSITIVITY_FLOOR = 1e-10


def _inv_sqrt_spd(m: np.ndarray) -> np.ndarray:
    """The inverse square root of a symmetric positive definite matrix."""
    w, u = np.linalg.eigh(m)
    if w.min() <= 0:
        raise np.linalg.LinAlgError("quadratic form is not positive definite")
    return (u / np.sqrt(w)) @ u.T


def _whitened_gauge(mq, mp, w):
    """(Mq^(-1/2), Mp^(-1/2), G) with G = Mq^(-1/2) W Mp^(-1/2) the
    whitened gauge, as the solver and the sampler both read it."""
    iq, ip = _inv_sqrt_spd(mq), _inv_sqrt_spd(mp)
    return iq, ip, iq @ w @ ip


def _minimize_gauge_ratio(sf: StandardForm, functional: str) -> MinimizationResult:
    mq, mp, w = functional_forms(sf, functional)
    iq, ip, g = _whitened_gauge(mq, mp, w)
    u, s, _ = np.linalg.svd(g)
    # u0: the whitened all-ones vector Mq^(1/2) 1 projected onto G's top
    # singular subspace, so a repeated sigma_max keeps equal weights where
    # they are a minimizer, or G's first singular vector when that
    # projection vanishes to rounding
    top = u[:, s >= s[0] * (1.0 - _TOP_TOL)]
    ones = mq @ iq.sum(axis=1)  # Mq^(1/2) 1
    u0 = top @ (top.T @ ones)
    norm = np.linalg.norm(u0)
    u0 = u0 / norm if norm > _TOP_TOL * np.linalg.norm(ones) else u[:, 0]
    # a' W b = 1 and a' Mq a = b' Mp b = 1 / sigma at any scale: G' u0 is
    # divided by sigma before the root, whose product with sigma underflows
    sigma = float(s[0])
    root = math.sqrt(sigma)
    a = (iq @ u0) / root
    b = (ip @ ((g.T @ u0) / sigma)) / root
    # canonical sign: overall negation of both vectors leaves the sum fixed
    if a.sum() < 0:
        a, b = -a, -b
    return MinimizationResult(
        value=float((a @ mq @ a + b @ mp @ b) / (a @ w @ b)),
        argmin_alpha=a,
        argmin_beta=b,
        boundary_flag=bool(min(a.min(), b.min()) <= _POSITIVITY_FLOOR),
    )


def min_separability_sum_numeric(sf: StandardForm, sign: str) -> MinimizationResult:
    """Minimize the separability sum over the weights numerically.

    For a two-mode input the value reproduces the closed form, twice the
    smaller symplectic eigenvalue of the partial transpose (plus) or of
    the CM (minus), as ``covariance.two_mode_symplectic_pair_pt`` and
    ``two_mode_symplectic_pair`` give them; at the returned point the two
    variances agree (the extremum balance condition).
    """
    return _minimize_gauge_ratio(sf, "sep_" + _check_sign(sign))


def min_steering_sum_ab(sf: StandardForm) -> float:
    """Closed-form minimum of the A->B steering sum: 2 sqrt(det V / det V_A),
    from the last pivots of the Cholesky factors of the position and
    momentum blocks. The leading block of a factor factors the leading
    submatrix, so det(vq) / det(vq_A) is the square of vq's last pivot,
    and likewise for vp (LinAlgError if a block is not positive
    definite)."""
    _require_bipartite(sf.n_modes)
    return float(2.0 * np.linalg.cholesky(sf.vq)[-1, -1] * np.linalg.cholesky(sf.vp)[-1, -1])


def min_steering_sum_ab_numeric(sf: StandardForm) -> MinimizationResult:
    """Minimize the A->B steering sum numerically (the gauge is Bob's
    rank-one corner; the value reproduces ``min_steering_sum_ab``)."""
    return _minimize_gauge_ratio(sf, "steer_ab")


def min_steering_sum_ba_numeric(sf: StandardForm) -> MinimizationResult:
    """Minimize the B->A steering sum numerically (stationarity in Bob's
    weights reduces the problem to Alice's block; no general closed form)."""
    return _minimize_gauge_ratio(sf, "steer_ba")


def _ab_rs_eigenvalue(V: CovarianceMatrix) -> float:
    """The smallest eigenvalue of V/V_A + (i/2) J_B from the entries of g =
    ``schur_complement(V, "A")``, a second route to A->B beside certify's
    pivot product. As LAPACK's 2x2 solver (dlae2) does, it takes g11 g22 -
    g12^2 - 1/4 over the larger eigenvalue ``top``: (g11 + g22)/2 - sqrt(...)
    cancels past the 1e-9 band on a squeezed Bob mode with ||g|| ~ 1e7.
    With top's terms halved and each product divided by top before the
    sum, only top overflows, and the eigenvalue then reads 0.0."""
    (g11, g12), (_, g22) = schur_complement(V, "A").tolist()
    h11, h22 = 0.5 * g11, 0.5 * g22
    top = h11 + h22 + math.hypot(h11 - h22, g12, 0.5)
    return g11 / top * g22 - g12 / top * g12 - 0.25 / top


def _direction_check(V: CovarianceMatrix, over: str, tol: float | None) -> UnsteerabilityCheck:
    """Both tests of one direction with the dead band tol, read by
    ``covariance.resolve_tolerance`` (None is DEFAULT_TOL)."""
    tol = resolve_tolerance(tol)
    V = _as_cm(V, bipartite=True)
    # certify's decision: its witnesses as Python floats, which mark a CM
    # that does not factor with either party first, and its rules
    w, (values, *_, ab_ok, ba) = _decide(V.matrix, tol)
    if not w.factored:
        raise np.linalg.LinAlgError("covariance matrix does not factor; certify refuses it")
    if over == "A":  # values[6:9] are det_ratio_ab, det_ratio_ba and schur_nu_min
        rs = _ab_rs_eigenvalue(V)
        return UnsteerabilityCheck(rs >= -_band(tol, V.matrix), ab_ok, values[6], rs)
    return UnsteerabilityCheck(*ba, values[7], values[8] - 0.5)


def check_unsteerable_ba(V: CovarianceMatrix, tol: float | None = None) -> UnsteerabilityCheck:
    """Necessary conditions of unsteerability from Bob to Alice.

    The Schur complement V/V_B must satisfy the matrix uncertainty
    relation V/V_B + (i/2) J_A >= 0, read as nu_min(V/V_B) >= 1/2; its
    determinant (equal to det V / det V_B) must reach 2^(-2N). The first
    condition implies the second and is strictly stronger when Alice
    holds several modes.
    """
    return _direction_check(V, "B", tol)


def check_unsteerable_ab(V: CovarianceMatrix, tol: float | None = None) -> UnsteerabilityCheck:
    """Necessary conditions of unsteerability from Alice to Bob (Schur
    complement over Alice; the determinant ratio det V / det V_A compares
    against 1/4 and is exactly equivalent to the matrix condition because
    Bob holds a single mode)."""
    return _direction_check(V, "A", tol)


# brute-force search tuning: draws per chain and round, chain count,
# rounds per block of random numbers, success-driven step adaptation
# bounds (relative to the unit-norm incumbents) and the share of
# always-global exploration draws
_BATCH = 128
_CHAINS = 4
_BLOCK = 4
_GLOBAL_FRACTION = 0.2
_STEP_GROW = 1.2
_STEP_SHRINK = 0.82
_STEP_MIN = 1e-7
_STEP_MAX = 5.0


def brute_force_min(
    sf: StandardForm, functional: str, grid: GridSpec | None = None
) -> float:
    """Randomized search oracle for the normalized-sum minima.

    Derivative-free seeded sampling of Alice's whitened weights z_a
    (a = Mq^(-1/2) z_a, signs free), with Bob's weights profiled out
    (variable projection): for a fixed z_a the best whitened Bob vector
    z_b is parallel to G' z_a, with G = Mq^(-1/2) W Mp^(-1/2), and the
    value there is 2 |z_a| / |G' z_a|, attained at b proportional to
    Mp^(-1/2) G' z_a. A draw is scored as |z_a|^2 / |G' z_a|^2 and
    rejected only where |G' z_a|^2 is 0, a test that holds at any scale
    of the forms; the result is 2 sqrt of the least score. Each round
    scores 128 points for each of 4 identical chains; a chain perturbs
    its incumbent by a success-adapted step times Gaussian noise and
    keeps a share of global draws. The score does not depend on the
    scale of z_a, so incumbents are kept at unit norm and the steps are
    relative. Incumbents start at 0, so a chain with no incumbent yet
    scores its local rows as fresh points scaled by its step, which is 1
    in the first round.

    The four chains' best scores and step sizes are Python floats, updated
    in one loop over the per-chain argmins; a round reuses one buffer for
    its scores. Only the draws, the move and the scoring run as numpy
    calls on the 512 rows.
    This runs about 1.0e7 samples/s at 2 to 4 modes (one core of a 2-vCPU
    x86-64 host, numpy 2.4.6 with OpenBLAS).

    The random numbers come from SFC64 in blocks of _BLOCK rounds, two
    calls per block: the normals for the chains and one uniform per row
    that decides global or local. The result upper-bounds the true
    minimum, is deterministic per seed, and never increases when the
    budget grows with the same seed: blocks are drawn at full size, the
    round that crosses the budget masks out the draws past it
    (chain-major) and the block's later rounds go unscored, so a larger
    budget replays the smaller run and scores a superset of its draws.
    """
    mq, mp, w = functional_forms(sf, functional)
    spec = grid or GridSpec()
    n = sf.n_modes
    *_, gauge = _whitened_gauge(mq, mp, w)
    # scoring against G / 2^e, with 2^e the binade of its largest entry,
    # keeps |G' z_a|^2 and the scores inside the doubles' range at any
    # scale of the forms; a power of two scales every score exactly
    _, e = math.frexp(float(np.abs(gauge).max()))
    gauge = np.ldexp(gauge, -e)
    rng = np.random.Generator(np.random.SFC64(spec.seed))
    rows = _CHAINS * _BATCH
    # two floats per chain cost less to update in a loop than in numpy calls
    best = [np.inf] * _CHAINS
    step = [1.0] * _CHAINS
    incumbent = np.zeros((_CHAINS, n))  # unit norm once a chain has one
    vals = np.empty(rows)
    for block in range(0, spec.samples, _BLOCK * rows):
        draws = rng.standard_normal((_BLOCK, _CHAINS, _BATCH, n))
        local = rng.random((_BLOCK, _CHAINS, _BATCH)) >= _GLOBAL_FRACTION
        for r in range(_BLOCK):
            start = block + r * rows
            if start >= spec.samples:
                break
            # a local row moves its chain's incumbent by step times its
            # draw; a global row is scored as a fresh point
            zr = draws[r]
            np.copyto(zr, incumbent[:, None, :] + np.array(step)[:, None, None] * zr, where=local[r][..., None])
            flat = zr.reshape(-1, n)
            gz = flat @ gauge  # the rows (G' z_a)'
            den = np.einsum("ki,ki->k", gz, gz)
            ok = den > 0.0
            ok[spec.samples - start :] = False  # draws past the budget
            norms = np.einsum("ki,ki->k", flat, flat)
            vals.fill(np.inf)
            np.divide(norms, den, out=vals, where=ok)
            picks = vals.reshape(_CHAINS, _BATCH).argmin(axis=1).tolist()
            for c, j in enumerate(picks):
                k = c * _BATCH + j
                if vals[k] < best[c]:
                    best[c] = float(vals[k])
                    incumbent[c] = flat[k] / math.sqrt(norms[k])
                    step[c] = min(step[c] * _STEP_GROW, _STEP_MAX)
                else:
                    step[c] = max(step[c] * _STEP_SHRINK, _STEP_MIN)
    return math.ldexp(2.0 * math.sqrt(min(best)), -e)
