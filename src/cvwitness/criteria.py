"""Certified verdicts from covariance-matrix analysis: physicality,
PPT/separability, and one-way steerability in both directions.

`certify` accepts any CM with Alice holding N modes and Bob the last
one, in standard form or not: it reads only local symplectic invariants
(Simon, PRL 84, 2726, 2000; Wiseman, Jones and Doherty, PRL 98, 140402,
2007), all from Cholesky factors of V in one private kernel,
``covariance._stack_witnesses``. Every flag is decided in covariance,
by the verdict rules beside the kernel, which compare each witness with
its threshold within one dead band: the tolerance, or the kernel's
rounding on a CM with large entries, whichever is larger. ``certify``
decides one CM on Python floats (``covariance._decide``), and
``stack_verdicts`` a stack on (k,) arrays (``covariance._decide_stack``);
``certify_many`` turns those into one verdict per member.
``validate_bona_fide``, ``split_standard`` and ``check_unsteerable_*``
use the same band. The A->B steering call uses the determinant ratio
det V / det V_A against 1/4, which is exactly equivalent to the matrix
condition when Bob holds one mode; ``check_unsteerable_ab`` evaluates the
matrix form from the entries of V/V_A, and acceptance criterion 7
compares the two.
The B->A call uses the Schur-complement matrix condition, which is
strictly stronger than its determinant counterpart when N > 1, in
Williamson normal form: nu_min(V/V_B) >= 1/2, a local invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covariance import (
    CovarianceMatrix,
    TwoModeStandardParams,
    _as_cm,
    _decide,
    _decide_stack,
    _require_bipartite,
    resolve_tolerance,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    validate_stack,
)
from .states import noisy_tmsv

__all__ = [
    "CorrelationVerdict",
    "VerdictConsistencyError",
    "certify",
    "certify_many",
    "stack_verdicts",
    "StackVerdicts",
    "WITNESS_KEYS",
    "find_one_way_example",
    "sign_rule_holds",
]


class VerdictConsistencyError(RuntimeError):
    """A PPT (hence separable) member was flagged steerable; indicates a
    numerical problem."""


@dataclass(frozen=True)
class CorrelationVerdict:
    """Certification result for one covariance matrix.

    A non-physical input refuses all downstream verdicts: every flag
    except ``physical`` is None and ``gaussian_separable`` reads
    "undecided". Witness values within the tolerance of a threshold add a
    ``marginal_*`` marker instead of flipping flags.
    """

    physical: bool
    ppt: bool | None
    separable_necessary_met: bool | None
    steerable_a_to_b: bool | None
    steerable_b_to_a: bool | None
    witnesses: dict = field(default_factory=dict)

    @property
    def gaussian_separable(self) -> str:
        """"yes", "no" or "undecided" as ``ppt`` is True, False or None:
        for the Gaussian state sharing this CM, with Bob holding one mode,
        PPT is necessary and sufficient for separability (Werner and Wolf,
        PRL 86, 3658, 2001)."""
        return _GAUSSIAN_SEPARABLE[self.ppt]

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


WITNESS_KEYS = (
    "min_rs_eig",
    "min_symplectic_eig",
    "min_symplectic_eig_pt",
    "sep_sum_plus_min",
    "sep_sum_minus_min",
    "steer_sum_ab_min",
    "det_ratio_ab",
    "det_ratio_ba",
    "schur_min_symplectic_eig",
)
_MARGINAL_KEYS = ("marginal_ppt", "marginal_ab", "marginal_ba")
_GAUSSIAN_SEPARABLE = {True: "yes", False: "no", None: "undecided"}  # by ppt
# the message of the self-check of ``_verdict_rules``
_PPT_STEERS = "steering flag raised on a PPT (hence separable) Gaussian state"


def _verdict(values, physical, ppt, separable_ok, steerable_ab, steerable_ba, *marginals):
    """One member's ``CorrelationVerdict`` from its Python-scalar witness
    values and flags; a non-physical member keeps only its ``min_rs_eig``
    witness and every other flag is None."""
    if physical:
        witnesses = dict(zip(WITNESS_KEYS, values))
        witnesses.update((key, 1.0) for key, on in zip(_MARGINAL_KEYS, marginals) if on)
    else:
        ppt = separable_ok = steerable_ab = steerable_ba = None
        witnesses = {"min_rs_eig": values[0]}
    return CorrelationVerdict(
        physical=physical,
        ppt=ppt,
        separable_necessary_met=separable_ok,
        steerable_a_to_b=steerable_ab,
        steerable_b_to_a=steerable_ba,
        witnesses=witnesses,
    )


def certify(V: CovarianceMatrix, tol: float | None = None) -> CorrelationVerdict:
    """Certify physicality, separability conditions and both steering
    directions for a bipartite (N vs 1)-mode covariance matrix.

    Only the kernel's LAPACK stage (``covariance._factor_stage``) runs on
    a stack of one; its outputs are read back as Python floats, and the
    kernel's closed forms and the verdict rules that ``stack_verdicts``
    applies to a stack's arrays, with their self-check, run on those
    floats (``covariance._decide``). So ``certify(V)`` equals
    ``certify_many([V])[0]`` bit for bit, with no numpy call after the
    LAPACK calls. The LAPACK calls reach
    numpy's gufuncs directly, inside one errstate, which skips
    numpy.linalg's per-call wrapper, about 2 us a call, and gives its bits.

    Args:
        V: covariance matrix, Bob = last mode, in standard form or not.
        tol: the floor of the dead band for all comparisons, finite and
            >= 0 (default ``covariance.DEFAULT_TOL``, 1e-9). The band is
            the larger of tol and 8 eps max|V|, so rounding in the kernel,
            which reaches 6.5 eps max|V| on a pure TMSV whose exact
            ``min_rs_eig`` is 0, flips no flag.

    A CM whose Cholesky factorization fails, in V's order or with Bob's
    mode first, or whose symplectic spectra fail, does not raise: the
    stage's mask marks it unfactored, and it is refused as non-physical.
    """
    tol = resolve_tolerance(tol)
    V = _as_cm(V, bipartite=True)
    _, (values, flags, ppt_steers, *_) = _decide(V.matrix, tol)
    if ppt_steers:
        raise VerdictConsistencyError(_PPT_STEERS)
    return _verdict(values, *flags)


class StackVerdicts(NamedTuple):
    """The verdicts of a stack of k CMs as two blocks: ``flags``, (k, 8)
    bool, and ``witnesses``, (k, 9) float in ``WITNESS_KEYS`` order. The
    named flags and markers are views of the columns of ``flags``.

    Only ``physical`` and the ``min_rs_eig`` column mean anything for a
    non-physical member: its other flags and witnesses are whatever the
    rules make of what the kernel left there (a member whose factor fails
    has zeroed witnesses, which read as steerable both ways), so every
    consumer masks them by ``physical``.
    """

    flags: np.ndarray
    witnesses: np.ndarray

    physical = property(lambda self: self.flags[:, 0])
    ppt = property(lambda self: self.flags[:, 1])
    separable_ok = property(lambda self: self.flags[:, 2])
    steerable_ab = property(lambda self: self.flags[:, 3])
    steerable_ba = property(lambda self: self.flags[:, 4])
    marginal_ppt = property(lambda self: self.flags[:, 5])
    marginal_ab = property(lambda self: self.flags[:, 6])
    marginal_ba = property(lambda self: self.flags[:, 7])


def stack_verdicts(cms, tol: float | None = None) -> StackVerdicts:
    """Flags, markers and witnesses of a stack of bipartite CMs with the
    same number of modes, given as a sequence of CMs or raw matrices, or
    as an array of shape (k, 2n, 2n), with no verdict object per member.

    A sequence is stacked (a CM as its matrix) and then read as an array
    is: validated once as a whole (``covariance.validate_stack``: shape,
    finiteness and symmetry, with errors naming the member), with Bob
    holding the last mode of every member. Reading a CM's matrix again
    leaves it bit for bit.

    The stack is decided in covariance (``covariance._decide_stack``):
    one batched kernel gives the witnesses of the whole stack, and the
    verdict rules ``certify`` applies to one CM's floats run once on its
    (k,) arrays, each member within the dead band it gets alone. A member
    whose factorization fails is refused as non-physical without
    affecting the others. The self-check looks at physical members only
    and raises ``VerdictConsistencyError`` when a PPT member steers.
    """
    tol = resolve_tolerance(tol)
    if not isinstance(cms, np.ndarray):
        cms = [cm.matrix if isinstance(cm, CovarianceMatrix) else np.asarray(cm) for cm in cms]
        if len({m.shape for m in cms}) > 1:
            raise ValueError("certification needs CMs with the same number of modes")
        # no member gives an empty sequence a shape: read it as no two-mode CMs
        cms = np.array(cms) if cms else np.zeros((0, 4, 4))
    v = validate_stack(cms)
    _require_bipartite(v.shape[1] // 2)
    _, (values, flags, ppt_steers, *_) = _decide_stack(v, tol)
    if np.count_nonzero(ppt_steers):
        raise VerdictConsistencyError(_PPT_STEERS)
    return StackVerdicts(np.array(flags).T, np.array(values).T)


def certify_many(cms, tol: float | None = None) -> list[CorrelationVerdict]:
    """Certify a stack of bipartite CMs with the same number of modes,
    given as a sequence of CMs or as an array of shape (k, 2n, 2n); one
    verdict per member, each the one ``certify`` gives it alone.

    The flags and witnesses are ``stack_verdicts``'s two blocks, read
    back row by row as Python scalars into one ``CorrelationVerdict`` per
    member, built as ``certify`` builds its one.
    """
    sv = stack_verdicts(cms, tol=tol)
    return [_verdict(values, *flags) for values, flags in zip(sv.witnesses.tolist(), sv.flags.tolist())]


def find_one_way_example() -> CovarianceMatrix:
    """A one-way steerable state: A->B steerable and B->A not.

    Thermal noise nbar on Alice's mode of tmsv(r) leaves A->B steering
    for nbar < 1/2 and B->A steering for nbar < sinh^2 r / cosh 2r
    (Wiseman, Jones and Doherty, PRL 98, 140402, 2007; the setting of
    Haendchen et al., Nature Photonics 6, 596, 2012). This is
    ``noisy_tmsv(0.7, nbar, "A")`` with nbar in the middle of that
    window, 0.5 - 1 / (4 cosh 1.4), where det V / det V_A sits 0.044
    below 1/4 and the smallest symplectic eigenvalue of V/V_B 0.116
    above 1/2: no witness is near its threshold.
    """
    return noisy_tmsv(0.7, 0.5 - 0.25 / math.cosh(1.4), "A")


# |d| at or below which the sign rule has no content
_SIGN_RULE_D_FLOOR = 1e-6


def sign_rule_holds(params: TwoModeStandardParams) -> bool:
    """Check that the smallest symplectic eigenvalue moves across partial
    transposition in the direction of the sign of d.

    Degenerate inputs with |d| <= 1e-6 are rejected: the two eigenvalues
    coincide there and the rule has no content.
    """
    if abs(params.d) <= _SIGN_RULE_D_FLOOR:
        raise ValueError(f"|d| = {abs(params.d):.2e} too small for the sign rule")
    nu_minus, _ = two_mode_symplectic_pair(params)
    nu_minus_pt, _ = two_mode_symplectic_pair_pt(params)
    return bool(np.sign(nu_minus_pt - nu_minus) == np.sign(params.d))
