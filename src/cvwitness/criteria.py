"""Certified verdicts from covariance-matrix analysis: physicality,
PPT/separability, and one-way steerability in both directions.

`certify` accepts any CM with Alice holding N modes and Bob the last
one, in standard form or not: it reads only local symplectic invariants
(Simon, PRL 84, 2726, 2000; Wiseman, Jones and Doherty, PRL 98, 140402,
2007), all from Cholesky factors of V. The A->B steering call uses the determinant ratio det V / det V_A
against 1/4, which is exactly equivalent to the matrix condition when
Bob holds one mode; both are computed and any disagreement outside the
tolerance dead band raises, as an internal self-check. The B->A call
uses the Schur-complement matrix condition, which is strictly stronger
than its determinant counterpart when N > 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    CovarianceMatrix,
    TwoModeStandardParams,
    symplectic_eigenvalues,
    symplectic_spectra,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    validate_bona_fide,
)
from .optimize import check_unsteerable_ab, check_unsteerable_ba
from .states import noisy_tmsv

__all__ = [
    "CorrelationVerdict",
    "VerdictConsistencyError",
    "OneWayExampleNotFound",
    "certify",
    "find_one_way_example",
    "sign_rule_holds",
    "default_tolerance",
    "resolve_tolerance",
]

GAUSSIAN_SEPARABLE_VALUES = ("yes", "no", "undecided")


class VerdictConsistencyError(RuntimeError):
    """The determinant and matrix forms of a criterion disagreed outside
    the tolerance dead band; indicates a numerical problem."""


class OneWayExampleNotFound(LookupError):
    """No one-way steerable state found on the searched parameter grid."""


def default_tolerance() -> float:
    """Verdict tolerance: 1e-9 unless overridden by CVW_DEFAULT_TOL."""
    raw = os.environ.get("CVW_DEFAULT_TOL", "1e-9")
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"CVW_DEFAULT_TOL is not a number: {raw!r}") from exc
    return resolve_tolerance(tol, "CVW_DEFAULT_TOL")


def resolve_tolerance(tol: float | None, source: str = "tol") -> float:
    """``tol``, or ``default_tolerance()`` when it is None; a NaN,
    infinite or negative tolerance raises ValueError naming ``source``."""
    if tol is None:
        return default_tolerance()
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{source} must be a finite number >= 0, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class CorrelationVerdict:
    """Certification result for one covariance matrix.

    A non-physical input refuses all downstream verdicts: every flag
    except ``physical`` is None and ``gaussian_separable`` stays
    "undecided". ``gaussian_separable`` applies to the Gaussian state
    sharing this CM; with ``assume_gaussian=False`` a positive PPT test
    is reported as "undecided" (PPT violation still certifies
    entanglement for any state). Witness values within the tolerance of
    a threshold add a ``marginal_*`` marker instead of flipping flags.
    """

    physical: bool
    ppt: bool | None
    separable_necessary_met: bool | None
    gaussian_separable: str
    steerable_a_to_b: bool | None
    steerable_b_to_a: bool | None
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gaussian_separable not in GAUSSIAN_SEPARABLE_VALUES:
            raise ValueError(
                f"gaussian_separable must be one of {GAUSSIAN_SEPARABLE_VALUES}"
            )

    def to_dict(self) -> dict:
        return {
            "physical": self.physical,
            "ppt": self.ppt,
            "separable_necessary_met": self.separable_necessary_met,
            "gaussian_separable": self.gaussian_separable,
            "steerable_a_to_b": self.steerable_a_to_b,
            "steerable_b_to_a": self.steerable_b_to_a,
            "witnesses": {k: float(v) for k, v in self.witnesses.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorrelationVerdict":
        return cls(
            physical=data["physical"],
            ppt=data["ppt"],
            separable_necessary_met=data["separable_necessary_met"],
            gaussian_separable=data["gaussian_separable"],
            steerable_a_to_b=data["steerable_a_to_b"],
            steerable_b_to_a=data["steerable_b_to_a"],
            witnesses=dict(data.get("witnesses", {})),
        )


def certify(
    V: CovarianceMatrix,
    tol: float | None = None,
    assume_gaussian: bool = True,
) -> CorrelationVerdict:
    """Certify physicality, separability conditions and both steering
    directions for a bipartite (N vs 1)-mode covariance matrix.

    Args:
        V: covariance matrix, Bob = last mode, in standard form or not.
        tol: threshold dead band for all comparisons, finite and >= 0
            (default 1e-9, or CVW_DEFAULT_TOL).
        assume_gaussian: whether separability sufficiency for the
            Gaussian state with this CM may be claimed.

    A CM whose Cholesky factorization fails is refused as non-physical.
    """
    tol = resolve_tolerance(tol)
    if not isinstance(V, CovarianceMatrix):
        V = CovarianceMatrix(V)
    V.require_bipartite()

    report = validate_bona_fide(V, tol=tol)
    witnesses: dict = {"min_rs_eig": report.min_rs_eigenvalue}
    physical = report.bona_fide
    if physical:
        try:
            nu, nu_pt = symplectic_spectra(V)
            ab = check_unsteerable_ab(V, tol=tol)
            ba = check_unsteerable_ba(V, tol=tol)
            schur_nu_min = float(symplectic_eigenvalues(ba.schur).min())
        except np.linalg.LinAlgError:
            # a factor of V with Bob first, or of V / V_B, failed: V is
            # not numerically positive definite
            physical = False
    if not physical:
        return CorrelationVerdict(
            physical=False,
            ppt=None,
            separable_necessary_met=None,
            gaussian_separable="undecided",
            steerable_a_to_b=None,
            steerable_b_to_a=None,
            witnesses=witnesses,
        )

    nu_min = float(nu.min())
    nu_min_pt = float(nu_pt.min())
    ppt = bool(nu_min_pt >= 0.5 - tol)

    # 2 nu~ and 2 nu are local invariants; whenever V has a standard form
    # they are the minima of the two separability sums there
    sep_plus_min = 2.0 * nu_min_pt
    sep_minus_min = 2.0 * nu_min
    separable_ok = bool(
        sep_plus_min >= 1.0 - tol and sep_minus_min >= 1.0 - tol
    )

    steer_ab_min = 2.0 * np.sqrt(ab.det_ratio)
    det_says_steerable = bool(ab.det_ratio < 0.25 - tol)
    matrix_says_steerable = not ab.matrix_ok
    ab_marginal = abs(ab.det_ratio - 0.25) <= tol or abs(ab.min_rs_eigenvalue) <= tol
    if not ab_marginal and det_says_steerable != matrix_says_steerable:
        raise VerdictConsistencyError(
            f"A->B determinant and matrix forms disagree: "
            f"det ratio {ab.det_ratio!r} vs min eigenvalue {ab.min_rs_eigenvalue!r}"
        )
    steerable_a_to_b = det_says_steerable

    steerable_b_to_a = not ba.matrix_ok
    ba_marginal = abs(ba.min_rs_eigenvalue) <= tol

    if not ppt:
        gaussian_separable = "no"
    elif assume_gaussian:
        gaussian_separable = "yes"
    else:
        gaussian_separable = "undecided"

    if (steerable_a_to_b or steerable_b_to_a) and gaussian_separable == "yes":
        raise VerdictConsistencyError(
            "steering flag raised on a PPT (hence separable) Gaussian state"
        )

    witnesses.update(
        {
            "min_symplectic_eig": nu_min,
            "min_symplectic_eig_pt": nu_min_pt,
            "sep_sum_plus_min": sep_plus_min,
            "sep_sum_minus_min": sep_minus_min,
            "steer_sum_ab_min": float(steer_ab_min),
            "det_ratio_ab": float(ab.det_ratio),
            "det_ratio_ba": float(ba.det_ratio),
            "schur_min_symplectic_eig": schur_nu_min,
        }
    )
    if abs(nu_min_pt - 0.5) <= tol:
        witnesses["marginal_ppt"] = 1.0
    if ab_marginal:
        witnesses["marginal_ab"] = 1.0
    if ba_marginal:
        witnesses["marginal_ba"] = 1.0

    return CorrelationVerdict(
        physical=True,
        ppt=ppt,
        separable_necessary_met=separable_ok,
        gaussian_separable=gaussian_separable,
        steerable_a_to_b=steerable_a_to_b,
        steerable_b_to_a=steerable_b_to_a,
        witnesses=witnesses,
    )


_R_GRID = (0.3, 0.5, 0.7, 1.0)
_NBAR_GRID = tuple(round(0.05 * k, 3) for k in range(1, 20))
_R_GRID_WIDE = tuple(round(0.1 * k, 3) for k in range(1, 16))
_NBAR_GRID_WIDE = tuple(round(0.025 * k, 3) for k in range(1, 61))


def find_one_way_example(
    tol: float | None = None,
    r_values=None,
    nbar_values=None,
) -> CovarianceMatrix:
    """Search noise-added two-mode squeezed states for a one-way steerable
    example (steerable in exactly one direction).

    Scans a grid of squeezing and one-sided thermal noise; widens the
    grid once before giving up. The returned CM is always bona fide.
    """
    grids = [(r_values or _R_GRID, nbar_values or _NBAR_GRID)]
    if r_values is None and nbar_values is None:
        grids.append((_R_GRID_WIDE, _NBAR_GRID_WIDE))
    for rs, nbars in grids:
        for r in rs:
            for nbar in nbars:
                for side in ("A", "B"):
                    cm = noisy_tmsv(r, nbar, side=side)
                    verdict = certify(cm, tol=tol)
                    if verdict.steerable_a_to_b != verdict.steerable_b_to_a:
                        return cm
    raise OneWayExampleNotFound(
        "no one-way steerable state on the searched noisy-TMSV grid"
    )


def sign_rule_holds(params: TwoModeStandardParams, d_floor: float = 1e-6) -> bool:
    """Check that the smallest symplectic eigenvalue moves across partial
    transposition in the direction of the sign of d.

    Degenerate inputs with |d| <= d_floor are rejected: the two
    eigenvalues coincide there and the rule has no content.
    """
    if abs(params.d) <= d_floor:
        raise ValueError(f"|d| = {abs(params.d):.2e} too small for the sign rule")
    nu_minus, _ = two_mode_symplectic_pair(params)
    nu_minus_pt, _ = two_mode_symplectic_pair_pt(params)
    return bool(np.sign(nu_minus_pt - nu_minus) == np.sign(params.d))
