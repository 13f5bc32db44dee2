"""Certified verdicts from covariance-matrix analysis: physicality,
PPT/separability, and one-way steerability in both directions.

`certify` accepts any CM with Alice holding N modes and Bob the last
one, in standard form or not: it reads only local symplectic invariants
(Simon, PRL 84, 2726, 2000; Wiseman, Jones and Doherty, PRL 98, 140402,
2007), all from Cholesky factors of V, for a whole stack of CMs at
once: ``stack_verdicts`` returns the flags and witnesses as arrays,
``certify_many`` turns them into one verdict per member, and
``certify`` is its stack of one. The A->B steering call uses the
determinant ratio det V / det V_A against 1/4, which is exactly
equivalent to the matrix condition when Bob holds one mode; both are
computed and any disagreement outside the tolerance dead band raises,
as an internal self-check. The B->A call uses the Schur-complement
matrix condition, which is strictly stronger than its determinant
counterpart when N > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covariance import (
    CovarianceMatrix,
    TwoModeStandardParams,
    resolve_tolerance,
    stack_witnesses,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    validate_stack,
)
from .states import GeneratorSpec

__all__ = [
    "CorrelationVerdict",
    "VerdictConsistencyError",
    "OneWayExampleNotFound",
    "certify",
    "certify_many",
    "stack_verdicts",
    "StackVerdicts",
    "WITNESS_KEYS",
    "find_one_way_example",
    "sign_rule_holds",
]

GAUSSIAN_SEPARABLE_VALUES = ("yes", "no", "undecided")


class VerdictConsistencyError(RuntimeError):
    """The determinant and matrix forms of a criterion disagreed outside
    the tolerance dead band; indicates a numerical problem."""


class OneWayExampleNotFound(LookupError):
    """No one-way steerable state found on the searched parameter grid."""


@dataclass(frozen=True)
class CorrelationVerdict:
    """Certification result for one covariance matrix.

    A non-physical input refuses all downstream verdicts: every flag
    except ``physical`` is None and ``gaussian_separable`` stays
    "undecided". ``gaussian_separable`` applies to the Gaussian state
    sharing this CM: with Bob holding one mode, PPT is necessary and
    sufficient for its separability (Werner and Wolf, PRL 86, 3658,
    2001). Witness values within the tolerance of a threshold add a
    ``marginal_*`` marker instead of flipping flags.
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
_GAUSSIAN_SEPARABLE = dict(zip((True, False, None), GAUSSIAN_SEPARABLE_VALUES))  # by ppt


def certify(V: CovarianceMatrix, tol: float | None = None) -> CorrelationVerdict:
    """Certify physicality, separability conditions and both steering
    directions for a bipartite (N vs 1)-mode covariance matrix: the
    verdict ``certify_many`` gives it as a stack of one.

    Args:
        V: covariance matrix, Bob = last mode, in standard form or not.
        tol: threshold dead band for all comparisons, finite and >= 0
            (default ``covariance.DEFAULT_TOL``, 1e-9).

    A CM whose Cholesky factorization fails is refused as non-physical.
    """
    return certify_many([V], tol=tol)[0]


class StackVerdicts(NamedTuple):
    """The verdicts of a stack of k CMs as two blocks: ``flags``, (k, 8)
    bool, and ``witnesses``, (k, 9) float in ``WITNESS_KEYS`` order. The
    named flags and markers are views of the columns of ``flags``.

    Only ``physical`` and the ``min_rs_eig`` column mean anything for a
    non-physical member: its other flags and witnesses are whatever the
    kernel left there (zeroed witnesses read as steerable A->B), so
    every consumer masks them by ``physical``.
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


# the value each row of stack_verdicts' witness block is tested against: a flag
# compares the row with centre - tol, a marker takes |w - centre| <= tol
_CENTRES = np.array([[0.0], [0.0], [0.5], [1.0], [1.0], [0.0], [0.25], [0.0], [0.0], [0.0], [0.0]])


def stack_verdicts(cms, tol: float | None = None) -> StackVerdicts:
    """Flags, markers and witnesses of a stack of bipartite CMs with the
    same number of modes, given as a sequence of CMs or as an array of
    shape (k, 2n, 2n), with no verdict object per member.

    An array is validated once as a whole (``covariance.validate_stack``:
    shape, finiteness and symmetry, with errors naming the member), and
    its members are read, as every CM is, with Bob holding the last
    mode. Members of a sequence are wrapped in ``CovarianceMatrix``
    unless they are one already.

    The witnesses of the whole stack come from one batched kernel
    (``covariance.stack_witnesses``), gathered into one float block; its
    flags come from one ``>=`` and one ``<`` against ``centre - tol``,
    and its markers from one ``|w - centre| <= tol``. A member whose
    factorization fails is refused as non-physical without affecting the
    others. Both self-checks look at physical members only and raise
    ``VerdictConsistencyError``: the A->B determinant and matrix forms
    must agree outside the dead band, and a PPT member, separable and
    hence unsteerable both ways (Wiseman, Jones and Doherty 2007), must
    raise no steering flag.
    """
    tol = resolve_tolerance(tol)
    if isinstance(cms, np.ndarray):
        v = validate_stack(cms)
        if v.shape[1] < 4:
            raise ValueError(
                "certification needs bipartite CMs of two or more modes, "
                f"got {v.shape[1] // 2}-mode members"
            )
    else:
        cms = [cm if isinstance(cm, CovarianceMatrix) else CovarianceMatrix(cm) for cm in cms]
        for cm in cms:
            cm.require_bipartite()
        if len({cm.n_modes for cm in cms}) > 1:
            raise ValueError("certification needs CMs with the same number of modes")
        v = np.array([cm.matrix for cm in cms])
    if not len(v):
        return StackVerdicts(np.zeros((0, 8), dtype=bool), np.zeros((0, len(WITNESS_KEYS))))
    kernel = stack_witnesses(v)
    # rows: the WITNESS_KEYS, then rs_ab and rs_ba. 2 nu~, 2 nu and 2 sqrt(det V / det V_A)
    # are local invariants; whenever V has a standard form they are the minima of the sums
    w = np.array([kernel.min_rs_eig, kernel.nu_min, kernel.nu_min_pt, kernel.nu_min_pt, kernel.nu_min,
                  np.sqrt(kernel.det_ratio_ab), kernel.det_ratio_ab, kernel.det_ratio_ba, kernel.schur_nu_min,
                  kernel.rs_ab, kernel.rs_ba])
    w[3:6] *= 2.0
    thresholds = _CENTRES - tol
    above = w >= thresholds
    below = w < thresholds
    near = np.abs(w - _CENTRES) <= tol
    # physical, ppt, separable_ok, steerable_ab, steerable_ba and the three markers
    flags = np.array([kernel.factored & above[0], above[2], above[3] & above[4], below[6], below[10],
                      near[2], near[6] | near[9], near[10]])
    physical, ppt, _, steerable_ab, steerable_ba, _, marginal_ab, _ = flags
    disagree = physical & ~marginal_ab & (steerable_ab != below[9])  # below[9]: rs_ab < -tol
    if np.count_nonzero(disagree):
        i = int(disagree.argmax())
        raise VerdictConsistencyError(
            f"A->B determinant and matrix forms disagree on member {i} of the stack: "
            f"det ratio {kernel.det_ratio_ab[i]!r} vs min eigenvalue {kernel.rs_ab[i]!r}"
        )
    if np.count_nonzero(physical & ppt & (steerable_ab | steerable_ba)):
        raise VerdictConsistencyError(
            "steering flag raised on a PPT (hence separable) Gaussian state"
        )
    return StackVerdicts(flags.T, w[:9].T)


def certify_many(cms, tol: float | None = None) -> list[CorrelationVerdict]:
    """Certify a stack of bipartite CMs with the same number of modes,
    given as a sequence of CMs or as an array of shape (k, 2n, 2n); one
    verdict per member, each the one ``certify`` gives it alone.

    The flags and witnesses are ``stack_verdicts``'s two blocks, turned
    into one ``CorrelationVerdict`` per member; a non-physical member
    keeps only its ``min_rs_eig`` witness and every other flag is None.
    """
    sv = stack_verdicts(cms, tol=tol)
    verdicts = []
    for values, (phys, pt, sep_ok, ab, ba, *marginals) in zip(sv.witnesses.tolist(), sv.flags.tolist()):
        if phys:
            wit = dict(zip(WITNESS_KEYS, values))
            wit.update((key, 1.0) for key, on in zip(_MARGINAL_KEYS, marginals) if on)
        else:
            pt = sep_ok = ab = ba = None
            wit = {"min_rs_eig": values[0]}
        verdicts.append(CorrelationVerdict(
            physical=phys,
            ppt=pt,
            separable_necessary_met=sep_ok,
            gaussian_separable=_GAUSSIAN_SEPARABLE[pt],
            steerable_a_to_b=ab,
            steerable_b_to_a=ba,
            witnesses=wit,
        ))
    return verdicts


# the (r, nbar) grids searched in turn: the base grid finds an example at
# the default tol, and the wide one for tol up to about 0.43
_GRIDS = (
    ((0.3, 0.5, 0.7, 1.0), tuple(round(0.05 * k, 3) for k in range(1, 20))),
    (tuple(round(0.1 * k, 3) for k in range(1, 16)),
     tuple(round(0.025 * k, 3) for k in range(1, 61))),
)


def find_one_way_example(tol: float | None = None) -> CovarianceMatrix:
    """Search noise-added two-mode squeezed states for a one-way steerable
    example (steerable in exactly one direction).

    Builds and certifies a grid of squeezing and one-sided thermal noise
    as one array and returns its first physical one-way member in
    (r, nbar, side) order; searches a wider grid before giving up. The
    returned CM is always bona fide.
    """
    for rs, nbars in _GRIDS:
        # (r, side, nbar) blocks of noisy_tmsv(r, nbar, side), reordered to (r, nbar, side)
        blocks = np.array([
            [GeneratorSpec("noisy_tmsv", params={"r": r, "side": side}).build_stack("nbar", nbars)
             for side in ("A", "B")]
            for r in rs
        ])
        stack = blocks.swapaxes(1, 2).reshape(-1, 4, 4)
        sv = stack_verdicts(stack, tol=tol)
        one_way = sv.physical & (sv.steerable_ab != sv.steerable_ba)
        if one_way.any():
            return CovarianceMatrix(stack[one_way.argmax()])
    raise OneWayExampleNotFound(
        "no one-way steerable state on the searched noisy-TMSV grid"
    )


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
