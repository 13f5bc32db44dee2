"""Covariance-matrix types and matrix-analysis primitives for multimode
continuous-variable states.

Conventions: hbar = 1 with quadratures q = (a + a^dag)/sqrt(2) and
p = (a - a^dag)/(i sqrt(2)), so the vacuum variance is 1/2, a physical
covariance matrix V satisfies V + (i/2) J >= 0, and det V >= 2**(-2n).
Matrices are stored mode-interleaved (q1, p1, q2, p2, ...); a file
record may give the block ordering (q1..qn, p1..pn) instead.

In bipartite use, Alice holds the first n - 1 modes and Bob holds
exactly the last mode.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "DEFAULT_TOL",
    "resolve_tolerance",
    "CovarianceMatrix",
    "StandardForm",
    "Partition",
    "TwoModeStandardParams",
    "ValidationReport",
    "symplectic_form",
    "one_mode_rotation",
    "one_mode_squeeze",
    "local_direct_sum",
    "validate_bona_fide",
    "validate_stack",
    "symplectic_eigenvalues",
    "partial_transpose_bob",
    "split_standard",
    "partition",
    "schur_complement",
    "aitken_factorize",
    "standard_form_reduce_two_mode",
    "two_mode_symplectic_pair",
    "two_mode_symplectic_pair_pt",
]

DEFAULT_TOL = 1e-9
# the dead band's floor per unit of max|V|: over pure TMSV up to r = 15,
# -lambda_min(V + (i/2) J) / (eps max|V|) is at most 6.54 (at r = 5.347)
_BAND_PER_NORM = 8.0 * sys.float_info.epsilon


def _band(tol: float, m: np.ndarray) -> float:
    """The dead band max(tol, 8 eps max|m|) of one CM m, as a Python float."""
    return max(tol, _BAND_PER_NORM * float(np.abs(m).max()))


def resolve_tolerance(tol: float | None, source: str = "tol") -> float:
    """``tol`` as a float, or ``DEFAULT_TOL`` when it is None; a bool, a
    non-real, NaN, infinite or negative one, or one beyond the float range,
    raises ValueError naming ``source``."""
    if tol is None:
        return DEFAULT_TOL
    real = isinstance(tol, numbers.Real) and not isinstance(tol, (bool, np.bool_))
    try:
        value = float(tol) if real else math.nan
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{source} must be a finite real number >= 0, got {tol!r}")
    return value


# relative tolerance for the symmetry check at construction
_SYMMETRY_RTOL = 1e-12

ORDERINGS = ("interleaved", "block")


def one_mode_rotation(theta: float) -> np.ndarray:
    """2x2 symplectic phase rotation of a single mode."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def one_mode_squeeze(z: float) -> np.ndarray:
    """2x2 symplectic squeeze diag(e^z, e^-z) of a single mode."""
    return np.diag([np.exp(z), np.exp(-z)])


def local_direct_sum(blocks) -> np.ndarray:
    """Assemble per-mode 2x2 symplectic blocks into a 2n x 2n local
    symplectic in interleaved ordering."""
    n = len(blocks)
    out = np.zeros((2 * n, 2 * n))
    for k, blk in enumerate(blocks):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blk
    return out


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form J = diag([[0, 1], [-1, 0]], ...) in
    mode-interleaved ordering."""
    return local_direct_sum([[[0.0, 1.0], [-1.0, 0.0]]] * n_modes)


def _require_bipartite(n_modes: int) -> None:
    """Refuse a mode count with no bipartition: Alice needs a mode of her own."""
    if n_modes < 2:
        raise ValueError(f"needs a bipartite CM of two or more modes, got {n_modes}")


def _require_int(name: str, value, low: int) -> None:
    """Refuse a ``value`` that is not an integer >= ``low``, such as a bool or 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_bob_last(n_alice, n_modes: int) -> None:
    """Refuse an ``n_alice`` other than None (unset) or n_modes - 1: Bob holds the last mode."""
    if n_alice not in (None, n_modes - 1):
        raise ValueError(
            f"n_alice must be {n_modes - 1}, as Bob holds the last mode, got {n_alice!r}"
        )


def _require_2n(size: int) -> None:
    """Refuse a matrix size that is not 2n >= 2."""
    if size % 2 != 0 or size < 2:
        raise ValueError(f"covariance matrix must be 2n x 2n, got size {size}")


def _real_finite(m: np.ndarray, member: str) -> np.ndarray:
    """A stack m of shape (k, d, d) as floats, after checking that each
    member is numeric, real and finite; a complex member whose imaginary
    parts are all zero is read as its real part. Errors name the first
    failing member i as ``member.format(i)``."""
    if m.dtype.kind in "bOSU":
        # float() would parse a string entry such as "0.5", read a bool as
        # 1 or 0, and fails on an object entry such as a dict with a
        # TypeError; None reads as NaN
        numeric = [all(x is None or isinstance(x, numbers.Real) and not isinstance(x, bool) for x in mi.flat)
                   for mi in m]
        if not all(numeric):
            raise ValueError(f"{member.format(numeric.index(False))} has non-numeric entries")
    if np.iscomplexobj(m):
        unreal = (m.imag != 0).any(axis=(1, 2))
        if unreal.any():
            raise ValueError(f"{member.format(int(unreal.argmax()))} has complex entries")
    m = np.asarray(m.real, dtype=float)
    if not np.isfinite(m).all():
        i = int(np.isfinite(m).all(axis=(1, 2)).argmin())
        raise ValueError(f"{member.format(i)} has non-finite entries")
    return m


def _symmetric(m: np.ndarray) -> np.ndarray:
    """Whether each member m_i of a finite float stack m of shape (k, d, d)
    is symmetric to _SYMMETRY_RTOL relative to max(|m_i|, 1), as a (k,)
    bool array. Both sides are halved, so no finite entry overflows."""
    scale = np.abs(m).max(axis=(1, 2)).clip(1.0)
    half = 0.5 * m
    return np.abs(half - half.transpose(0, 2, 1)).max(axis=(1, 2)) <= 0.5 * _SYMMETRY_RTOL * scale


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """0.5 m + 0.5 m^T for a finite float stack m, the one symmetrization of
    every CM read: halved first, so no finite entry overflows. Halving
    rounds an odd multiple of the smallest subnormal, so an entry equal to
    its mirror that the sum moves is kept as it is: reading a CM's matrix
    again keeps its bits."""
    mt = m.transpose(0, 2, 1)
    half = 0.5 * m + 0.5 * mt
    return np.where((half != m) & (m == mt), m, half)


def _validated(m: np.ndarray, member: str) -> np.ndarray:
    """The ``_symmetrized`` float stack of a stack m of 2n x 2n members
    that ``_real_finite`` accepts, after checking that each member is
    ``_symmetric``."""
    _require_2n(m.shape[-1])
    m = _real_finite(m, member)
    symmetric = _symmetric(m)
    if not symmetric.all():
        raise ValueError(f"{member.format(int(symmetric.argmin()))} is not symmetric")
    return _symmetrized(m)


def validate_stack(stack) -> np.ndarray:
    """Validate a stack of candidate CMs of shape (k, 2n, 2n) in
    interleaved ordering, as ``CovarianceMatrix`` validates one, and
    return its symmetrized float copy. A ValueError names the expected
    shape, or the index of the first member that is not numeric, complex,
    not finite or not symmetric."""
    m = np.asarray(stack)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of CMs of shape (k, 2n, 2n), got shape {m.shape}")
    return _validated(m, "member {} of the stack")


class CovarianceMatrix:
    """Real symmetric 2n x 2n matrix of quadrature second moments, taken
    in mode-interleaved ordering; block order is a file field, which
    ``from_dict`` permutes to interleaved.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {m.shape}")
        self.matrix = _validated(m[None], "covariance matrix")[0]
        self.n_modes = m.shape[0] // 2

    @property
    def n_alice(self) -> int:
        """Alice's mode count: every mode but Bob's, the last one."""
        return self.n_modes - 1

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "n_alice": self.n_alice,
            "ordering": "interleaved",
            "matrix": [[float(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceMatrix":
        try:
            matrix = data["matrix"]
            n_modes = data["n_modes"]
            ordering = data.get("ordering", "interleaved")
            n_alice = data.get("n_alice")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed covariance-matrix record: {exc}") from exc
        _require_int("n_modes", n_modes, 1)
        n_modes = int(n_modes)
        # as objects, so that a JSON true or false keeps its type for the
        # entry check: np.asarray reads it as 1.0 or 0.0 beside a number
        m = np.asarray(matrix, dtype=object)
        if m.shape != (2 * n_modes, 2 * n_modes):
            raise ValueError(
                f"matrix shape {m.shape} inconsistent with n_modes={n_modes}"
            )
        _require_bob_last(None if n_alice == 0 else n_alice, n_modes)  # 0: legacy unset
        if ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
        if ordering == "block":
            # perm[i_interleaved] = i_block: (0, n, 1, n + 1, ...)
            perm = np.arange(2 * n_modes).reshape(2, n_modes).T.ravel()
            m = m[np.ix_(perm, perm)]
        return cls(m)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CovarianceMatrix":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return f"CovarianceMatrix(n_modes={self.n_modes}, matrix={self.matrix!r})"


def _as_cm(V, bipartite: bool = False) -> CovarianceMatrix:
    """V, or the raw array V read by ``CovarianceMatrix``; with
    ``bipartite`` set, a CM of fewer than two modes is refused."""
    if not isinstance(V, CovarianceMatrix):
        V = CovarianceMatrix(V)
    if bipartite:
        _require_bipartite(V.n_modes)
    return V


def _interleaved(vq, vp) -> CovarianceMatrix:
    """The CM with position block vq, momentum block vp and no sigma(q, p)
    entries, written by the strided slices that ``split_standard`` reads."""
    n = len(vq)
    m = np.zeros((2 * n, 2 * n))
    m[0::2, 0::2], m[1::2, 1::2] = vq, vp
    return CovarianceMatrix(m)


@dataclass(frozen=True)
class StandardForm:
    """Standard-form CM stored as the pair of (N+1) x (N+1) blocks in
    position and momentum space; all sigma(q, p) covariances vanish."""

    vq: np.ndarray
    vp: np.ndarray
    # Bob holds the last mode; kept for callers that pass n_modes - 1 (bench/workloads.py)
    n_alice: int | None = None

    def __post_init__(self):
        # private read-only copies: a later write to the caller's arrays,
        # or to these, would bypass the checks below
        vq, vp = np.array(self.vq), np.array(self.vp)
        if vq.shape != vp.shape or vq.ndim != 2 or vq.shape[0] != vq.shape[1] or not vq.size:
            raise ValueError("vq and vp must be square matrices of equal size, at least 1 x 1")
        vq = _real_finite(vq[None], "vq block")[0]
        vp = _real_finite(vp[None], "vp block")[0]
        vq.flags.writeable = vp.flags.writeable = False
        object.__setattr__(self, "vq", vq)
        object.__setattr__(self, "vp", vp)
        _require_bob_last(self.n_alice, self.n_modes)
        object.__setattr__(self, "n_alice", self.n_modes - 1)
        for name, blk in (("vq", vq), ("vp", vp)):
            if not _symmetric(blk[None])[0]:
                raise ValueError(f"{name} block is not symmetric")
            np.linalg.cholesky(blk)  # LinAlgError unless positive definite

    @property
    def n_modes(self) -> int:
        return self.vq.shape[0]

    def to_covariance_matrix(self) -> CovarianceMatrix:
        return _interleaved(self.vq, self.vp)


class Partition(NamedTuple):
    """Bipartite split of a CM: Alice block, Bob block and cross block."""

    alice: np.ndarray
    bob: np.ndarray
    cross: np.ndarray


@dataclass(frozen=True)
class TwoModeStandardParams:
    """The quadruple (b1, b2, c, d) of a two-mode standard-form CM with
    Alice's local block b1*I, Bob's b2*I and cross block diag(c, d), in
    party order, with b1, b2 >= 1/2 and c >= |d|."""

    b1: float
    b2: float
    c: float
    d: float

    def __post_init__(self):
        slack = 1e-9
        for name, b in (("b1", self.b1), ("b2", self.b2)):
            if not b >= 0.5 - slack:
                raise ValueError(f"need {name} >= 1/2, got {name}={b}")
        if not self.c >= abs(self.d) - slack:
            raise ValueError(f"need c >= |d|, got c={self.c}, d={self.d}")

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        b1, b2, c, d = self.b1, self.b2, self.c, self.d
        return np.array([[b1, c], [c, b2]]), np.array([[b1, d], [d, b2]])

    def to_covariance_matrix(self) -> CovarianceMatrix:
        return _interleaved(*self._blocks())

    def to_standard_form(self) -> StandardForm:
        return StandardForm(*self._blocks())


@dataclass(frozen=True)
class ValidationReport:
    """Physicality flags for a candidate CM.

    ``min_rs_eigenvalue`` is the smallest eigenvalue of the Hermitian
    matrix V + (i/2) J and witnesses how close the matrix uncertainty
    relation is to being violated.
    """

    symmetric: bool
    positive_definite: bool
    rs_ur_satisfied: bool
    min_rs_eigenvalue: float
    tol: float

    @property
    def bona_fide(self) -> bool:
        return self.symmetric and self.positive_definite and self.rs_ur_satisfied


def validate_bona_fide(V, tol: float | None = None) -> ValidationReport:
    """Check symmetry, positive definiteness and the matrix uncertainty
    relation V + (i/2) J >= 0 for a candidate covariance matrix.

    Accepts a CovarianceMatrix or a raw real, finite 2n x 2n array in
    interleaved ordering, symmetric or not. The symmetric part of V is
    decided as certify decides it (``_decide``): V is positive definite
    when the kernel's Cholesky factorization succeeds, and the verdict
    rules' RS test reads the smallest eigenvalue of V + (i/2) J, which is
    meaningful even for singular V. Pure Gaussians sit exactly at zero,
    hence the dead band max(tol, 8 eps max|V|), as in certify. tol is read
    by ``resolve_tolerance`` (None is DEFAULT_TOL), and the report's
    ``tol`` is that floor, not the band.
    """
    tol = resolve_tolerance(tol)
    if isinstance(V, CovarianceMatrix):
        m = V.matrix
    else:
        # not through CovarianceMatrix, which refuses an asymmetric array
        m = np.asarray(V)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a 2n x 2n matrix, got shape {m.shape}")
        _require_2n(m.shape[0])
        m = _real_finite(m[None], "matrix")[0]
    w, (values, *_, rs_ok, _, _) = _decide(_symmetrized(m[None])[0], tol)
    return ValidationReport(
        symmetric=bool(_symmetric(m[None])[0]),
        positive_definite=w.factored,
        rs_ur_satisfied=rs_ok,
        min_rs_eigenvalue=values[0],
        tol=tol,
    )


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic spectrum of a positive-definite CM, descending, from
    its Cholesky factor V = L L^T (LinAlgError if V is not positive
    definite): the upper half of the eigenvalues +-nu of the Hermitian
    matrix i L^T J L, which is similar to i J V. A bona fide CM has all
    values >= 1/2. A raw array is read as ``CovarianceMatrix`` reads it.
    """
    V = _as_cm(V)
    n = V.n_modes
    low = np.linalg.cholesky(V.matrix)
    return np.linalg.eigvalsh(1j * (low.T @ symplectic_form(n) @ low))[n:][::-1]


def partial_transpose_bob(V: CovarianceMatrix) -> CovarianceMatrix:
    """Flip the sign of Bob's momentum row/column (the CM-level partial
    transpose with respect to the last mode). Involutive."""
    V = _as_cm(V, bipartite=True)
    signs = np.ones(2 * V.n_modes)
    signs[-1] = -1.0
    return CovarianceMatrix(V.matrix * np.outer(signs, signs))


def split_standard(V, tol: float | None = None) -> StandardForm:
    """Split a standard-form CM into its position and momentum blocks.

    Raises ValueError when any sigma(q, p) entry exceeds the dead band
    that certify decides within, max(tol, 8 eps max|V|), with tol read by
    ``resolve_tolerance`` (None is DEFAULT_TOL). The determinant
    factorizes: det V = det(vq) * det(vp).
    """
    tol = resolve_tolerance(tol)
    V = _as_cm(V)
    m = V.matrix
    worst, band = np.abs(m[0::2, 1::2]).max(), _band(tol, m)
    if worst > band:
        raise ValueError(
            f"matrix is not in standard form: largest |sigma(q, p)| entry is "
            f"{worst:.3e} (tolerance {band:.1e})"
        )
    return StandardForm(vq=m[0::2, 0::2], vp=m[1::2, 1::2])


def partition(V: CovarianceMatrix) -> Partition:
    """Split a bipartite CM into Alice / Bob / cross blocks
    (2N x 2N, 2 x 2 and 2N x 2)."""
    V = _as_cm(V, bipartite=True)
    k = 2 * V.n_modes - 2
    m = V.matrix
    return Partition(alice=m[:k, :k], bob=m[k:, k:], cross=m[:k, k:])


def schur_complement(V: CovarianceMatrix, over: str = "B") -> np.ndarray:
    """Schur complement of a bipartite CM.

    over="B" eliminates Bob and returns V_A - C V_B^-1 C^T (2N x 2N);
    over="A" eliminates Alice and returns V_B - C^T V_A^-1 C (2 x 2).
    The determinant identity det(V / V_X) = det V / det V_X holds.

    The complement is L_kk L_kk^T, from the trailing block L_kk of the
    Cholesky factor of V with the eliminated party first, so it is
    positive definite by construction.
    """
    V = _as_cm(V, bipartite=True)
    k = 2 * V.n_modes - 2
    if over == "A":
        low = np.linalg.cholesky(V.matrix)[k:, k:]
    elif over == "B":
        order = np.r_[k : k + 2, :k]
        low = np.linalg.cholesky(V.matrix[np.ix_(order, order)])[2:, 2:]
    else:
        raise ValueError(f"over must be 'A' or 'B', got {over!r}")
    return low @ low.T


class _StackWitnesses(NamedTuple):
    """Per-member witnesses of a stack of k CMs, each a (k,) array, or of
    one CM, each a Python scalar (``_float_witnesses``). A member that the
    LAPACK stage's mask marks unfactored, because its factor in either
    order, a spectrum or its V/V_B eigensolve failed, has ``factored``
    False and zeros everywhere but ``min_rs_eig``."""

    factored: np.ndarray
    min_rs_eig: np.ndarray  # smallest eigenvalue of V + (i/2) J
    nu_min: np.ndarray  # smallest symplectic eigenvalue of V
    nu_min_pt: np.ndarray  # ... and of its partial transpose
    nu_ab: np.ndarray  # pivot product of V/V_A, sqrt(det V / det V_A)
    h_ab: np.ndarray  # half trace of V/V_A
    nu_ba: np.ndarray  # pivot product of V/V_B, sqrt(det V / det V_B)
    schur_nu_min: np.ndarray  # smallest symplectic eigenvalue of V/V_B


@functools.lru_cache(maxsize=None)
def _stack_constants(n_modes: int):
    """(i/2) J, the forms J and P J P stacked, J_A, and the flat indices
    that take a CM's entries to its own and then to those of its
    reordering with Bob's mode first, for n_modes modes."""
    j = symplectic_form(n_modes)
    pt = j.copy()
    pt[-2:, -2:] *= -1.0
    dim = 2 * n_modes
    k = dim - 2
    bob_first = np.r_[k:dim, :k]
    pair = np.concatenate([np.arange(dim * dim), (bob_first[:, None] * dim + bob_first).ravel()])
    out = (0.5j * j, np.stack([j, pt]), j[:k, :k], pair)
    for arr in out:
        arr.flags.writeable = False
    return out


# numpy's LAPACK gufuncs, called directly with numpy.linalg's signatures,
# which skips its per-call checks, about 2 us a call: by the kernel's LAPACK
# stage (``_factor_stage``) and by optimize's gauge solver and sampler
# (``_whitened_gauge``, ``_minimize_gauge_ratio``). A member whose call fails
# comes back as NaN and sets the invalid flag. One-shot calls keep
# numpy.linalg, whose checks they want on inputs of any shape and dtype. The
# module is private, so a numpy that lacks one of them fails the import by name.
try:
    _cholesky_lo, _eigvalsh_lo = _umath_linalg.cholesky_lo, _umath_linalg.eigvalsh_lo
    _eigh_lo, _svd_f = _umath_linalg.eigh_lo, _umath_linalg.svd_f
except AttributeError as err:
    raise ImportError(
        f"cvwitness needs the LAPACK gufunc numpy.linalg._umath_linalg.{err.name}, which numpy "
        f"{np.__version__} lacks; README names the numpy its pinned results were written with, 2.4.6"
    ) from err


def _one_mode_schur(l11, l21, l22):
    """The pivot product l11 l22 of a one-mode block g = L_kk L_kk^T with
    lower factor L_kk = [[l11, 0], [l21, l22]], which is sqrt(det g) and
    g's symplectic eigenvalue, and g's half trace (g11 + g22)/2, halved
    term by term so that no finite factor overflows it. Written once over
    the entries of one factor as Python floats, or of a stack's factors as
    (k,) arrays: both give the same bits."""
    return l11 * l22, 0.5 * (l11 * l11) + (0.5 * (l21 * l21) + 0.5 * (l22 * l22))


def _factor_stage(v: np.ndarray):
    """The kernel's LAPACK stage on a validated stack v of shape (k, 2n,
    2n): one batched Cholesky factorization and one or two batched
    Hermitian eigensolves.

    Each V and its reordering with Bob's mode first are factored
    together, as one (2k, 2n, 2n) stack: member i's V = L L^T at 2i and
    its Bob-first factor at 2i + 1. The factor gives both symplectic
    spectra through i L^T J L and i L^T (P J P) L, in one eigensolve with
    V + (i/2) J, all filled into one complex buffer: the (3k, 2n)
    eigenvalues hold V + (i/2) J's at row i and the two spectra at rows
    k + 2i and k + 2i + 1, each nu_min in column n. For n >= 3 a second
    eigensolve reads V/V_B's smallest symplectic eigenvalue from the
    spectrum of i L_kk^T J_A L_kk, with L_kk the trailing block of the
    Bob-first factor; for n <= 2 that is None.

    The calls go to numpy's gufuncs directly, with numpy.linalg's
    signatures, inside one errstate: overflow, division and underflow are
    ignored, as numpy.linalg ignores them, and the call handler only
    records an invalid flag, which a gufunc sets when it writes NaN for a
    member whose LAPACK call failed. Only when it has fired are the NaN
    factors zeroed, before the spectra matmul, and the mask built: a
    member is unfactored when a factor in either order, a spectrum or its
    V/V_B eigensolve is NaN. An overflow of the spectra matmul, on a CM
    near the double range, is ignored too and shows as a NaN spectrum. A
    NaN eigenvalue of V + (i/2) J raises numpy's LinAlgError, as
    numpy.linalg.eigvalsh would. The tail and the verdict rules run outside
    the errstate, under the caller's.

    Returns (factors, eigenvalues, schur_nu_min, factored), with the (k,)
    bool mask ``factored`` None when no call failed."""
    k, dim, _ = v.shape
    n = dim // 2
    rs_shift, forms, j_a, pair = _stack_constants(n)
    failed = {}  # the call handler's record of an invalid flag
    with np.errstate(call=failed.__setitem__, invalid="call", over="ignore", divide="ignore", under="ignore"):
        factors = _cholesky_lo(v.reshape(k, dim * dim).take(pair, axis=1).reshape(2 * k, dim, dim), signature="d->d")
        nan = False
        if failed:
            nan = np.isnan(factors[:, 0, 0])
            factors[nan] = 0.0
        low = factors[0::2]
        batch = np.empty((3 * k, dim, dim), dtype=complex)
        np.add(v, rs_shift, batch[:k])
        np.multiply(1j, low.transpose(0, 2, 1)[:, None] @ forms @ low[:, None], batch[k:].reshape(k, 2, dim, dim))
        eig = _eigvalsh_lo(batch, signature="D->d")
        schur_nu_min = None
        if n > 2:
            low_ba = factors[1::2, 2:, 2:]
            schur_nu_min = _eigvalsh_lo(1j * (low_ba.transpose(0, 2, 1) @ j_a @ low_ba), signature="D->d")[:, n - 1]
    if not failed:
        return factors, eig, schur_nu_min, None
    rows = np.isnan(eig[:, 0])
    if rows[:k].any():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    unfactored = (nan | rows[k:]).reshape(k, 2).any(axis=1)
    if schur_nu_min is not None:
        unfactored |= np.isnan(schur_nu_min)
    return factors, eig, schur_nu_min, ~unfactored


def _stack_witnesses(v: np.ndarray) -> _StackWitnesses:
    """Every certification witness of a stack of bipartite CMs, shape
    (k, 2n, 2n) with Bob holding the last mode, as (k,) arrays: the
    LAPACK stage (``_factor_stage``) and then its closed-form tail, run
    on the stage's arrays. ``_float_witnesses`` runs the same tail on one
    CM's Python floats.

    The tail reads the rest from the two factors. L's trailing 2x2 block
    is the factor of V/V_A, always one mode, and goes through the
    one-mode closed forms (``_one_mode_schur``). The trailing block L_kk
    of the Bob-first factor is the factor of V/V_B, and the product of
    its pivots, taken in order by ``math.prod``, is ``nu_ba`` = sqrt(det
    V / det V_B) for every n; with n = 2 that is also V/V_B's symplectic
    eigenvalue ``schur_nu_min``.

    The whole stack takes the stage's calls once, whichever members fail:
    when the stage's mask marks a member unfactored, its witnesses but
    ``min_rs_eig`` are zeroed, and the other members keep the bits they
    get alone.

    The stack must be validated and symmetric, as ``validate_stack``
    returns it: every caller checks its input first. A one-mode stack
    gets ``factored`` and ``min_rs_eig``, and nothing else that means
    anything. An empty stack gives eight empty arrays.
    """
    k, dim, _ = v.shape
    n = dim // 2
    factors, eig, schur_nu_min, factored = _factor_stage(v)
    low = factors[0::2, -2:, -2:]
    nus = eig[k:, n].reshape(k, 2)
    with np.errstate(over="ignore"):  # a product past the double range is inf, as on floats
        nu_ab, h_ab = _one_mode_schur(low[:, 0, 0], low[:, 1, 0], low[:, 1, 1])
        nu_ba = math.prod(factors[1::2, 2:, 2:].diagonal(axis1=1, axis2=2).T, start=np.ones(k))
    tail = (nus[:, 0], nus[:, 1], nu_ab, h_ab, nu_ba, nu_ba if schur_nu_min is None else schur_nu_min)
    if factored is None:
        return _StackWitnesses(np.ones(k, dtype=bool), eig[:k, 0], *tail)
    return _StackWitnesses(factored, eig[:k, 0], *(np.where(factored, x, 0.0) for x in tail))


def _float_witnesses(m: np.ndarray) -> _StackWitnesses:
    """``_stack_witnesses`` of one validated, symmetric CM m as Python
    scalars, bit for bit: the LAPACK stage runs on m as a stack of one,
    and the closed-form tail on the stage's outputs read back as Python
    floats, where each operation costs a fraction of a numpy call on a
    one-element array and a product past the double range is inf with no
    warning."""
    dim = m.shape[0]
    n = dim // 2
    factors, eig, schur_nu_min, factored = _factor_stage(m[None])
    if factored is not None and not factored[0]:
        return _StackWitnesses(False, eig.item(0, 0), *[0.0] * 6)
    nu_ab, h_ab = _one_mode_schur(factors.item(0, dim - 2, dim - 2), factors.item(0, dim - 1, dim - 2),
                                  factors.item(0, dim - 1, dim - 1))
    nu_ba = math.prod(factors[1].diagonal().tolist()[2:], start=1.0)
    return _StackWitnesses(True, eig.item(0, 0), eig.item(1, n), eig.item(2, n), nu_ab, h_ab, nu_ba,
                           nu_ba if schur_nu_min is None else schur_nu_min.item())


def _verdict_rules(w: _StackWitnesses, band, n_alice: int):
    """The verdict rules, the only code that compares a kernel witness with
    a threshold, written once over the kernel's witnesses ``w``: Python
    scalars for one CM, or (k,) arrays for a stack, with ``n_alice`` Alice
    modes, and the dead ``band`` as a float or a (k,) array. Only
    operators that mean the same on both are used (``x ^ True`` for not),
    so each member of a stack gets the bits it gets alone. A test compares
    a witness with ``centre - band`` (``-band`` for the centre 0), a marker
    takes ``|w - centre| <= band``. Only here are pivot products squared.

    A->B is decided by the pivot product alone: with Bob holding one mode,
    det V / det V_A >= 1/4 is exactly V/V_A + (i/2) J_B >= 0. Its marker
    also holds within the band of that matrix form's smallest eigenvalue,
    det(V/V_A + (i/2) J_B) / top = (nu_ab^2 - 1/4) / top, where the larger
    eigenvalue top is about 2 h_ab: |nu_ab - 1/2| <= band h_ab / (nu_ab/2 +
    1/4), which a squeezed Bob mode, h_ab >> nu_ab, widens.

    Returns the ``criteria.WITNESS_KEYS`` values; the flags (physical, ppt,
    separable_ok, steerable_ab, steerable_ba) and the three markers; the
    self-check failure (a PPT, hence separable and unsteerable (Wiseman,
    Jones and Doherty 2007), member steers); the RS test; the A->B
    determinant test; and the (matrix, determinant) unsteerability tests
    of B->A, against 1/2 for nu_min(V/V_B), the Williamson form of V/V_B +
    (i/2) J_A >= 0, and 4^-N.
    """
    # 2 nu~, 2 nu and 2 nu_ab = 2 sqrt(det V / det V_A) are local invariants;
    # whenever V has a standard form they are the minima of the sums
    sep_plus, sep_minus = 2.0 * w.nu_min_pt, 2.0 * w.nu_min
    det_ab, det_ba = w.nu_ab * w.nu_ab, w.nu_ba * w.nu_ba
    values = (w.min_rs_eig, w.nu_min, w.nu_min_pt, sep_plus, sep_minus, 2.0 * w.nu_ab, det_ab, det_ba,
              w.schur_nu_min)
    rs_ok = w.min_rs_eig >= -band
    ab_ok = w.nu_ab >= 0.5 - band
    ba = (w.schur_nu_min >= 0.5 - band, det_ba >= 0.25**n_alice - band)
    physical = w.factored & rs_ok
    ppt = w.nu_min_pt >= 0.5 - band
    steerable_ab, steerable_ba = ab_ok ^ True, ba[0] ^ True
    off_ab = abs(w.nu_ab - 0.5)
    marginal_ab = (off_ab <= band) | (off_ab <= band * (w.h_ab / (0.5 * w.nu_ab + 0.25)))
    flags = (physical, ppt, (sep_plus >= 1.0 - band) & (sep_minus >= 1.0 - band), steerable_ab, steerable_ba,
             abs(w.nu_min_pt - 0.5) <= band, marginal_ab, abs(w.schur_nu_min - 0.5) <= band)
    ppt_steers = physical & ppt & (steerable_ab | steerable_ba)
    return values, flags, ppt_steers, rs_ok, ab_ok, ba


def _decide(m: np.ndarray, tol: float):
    """The one-CM decision: the witnesses of one validated, symmetric CM
    ``m``, Bob holding its last mode, as Python scalars
    (``_float_witnesses``), and ``_verdict_rules`` applied to them with
    the band max(tol, 8 eps max|m|), so that every test and flag is a
    Python bool. Only the LAPACK stage touches numpy arrays.
    ``validate_bona_fide``, ``criteria.certify`` and
    ``optimize.check_unsteerable_*`` all decide through it."""
    band = _band(tol, m)
    w = _float_witnesses(m)
    return w, _verdict_rules(w, band, m.shape[0] // 2 - 1)


def _decide_stack(v: np.ndarray, tol: float):
    """``_decide`` for a whole validated stack ``v`` of bipartite CMs at
    once: the rules run on the kernel's (k,) arrays, each member within the
    band it gets alone. ``criteria.stack_verdicts`` decides through it."""
    band = np.maximum(tol, _BAND_PER_NORM * np.abs(v).max(axis=(1, 2)))
    kernel = _stack_witnesses(v)
    with np.errstate(over="ignore"):  # a ratio past the double range is inf, as on floats
        return kernel, _verdict_rules(kernel, band, v.shape[1] // 2 - 1)


def aitken_factorize(V: CovarianceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """LDU-style congruence V = T D T^T with unimodular upper-triangular
    T = [[I, C V_B^-1], [0, I]] and D = (V/V_B) direct-sum V_B."""
    part = partition(V)
    k = part.alice.shape[0]
    n = k + 2
    T = np.eye(n)
    T[:k, k:] = np.linalg.solve(part.bob, part.cross.T).T
    D = np.zeros((n, n))
    D[:k, :k] = schur_complement(V, "B")
    D[k:, k:] = part.bob
    return T, D


def two_mode_symplectic_pair(params: TwoModeStandardParams) -> tuple[float, float]:
    """Symplectic eigenvalues (nu_minus, nu_plus) of a two-mode standard-form
    CM: nu_plus^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2 and nu_minus^2 =
    det V / nu_plus^2, where their difference would cancel (Serafini,
    Illuminati and De Siena, J. Phys. B 37, L21, 2004). A negative det V, a
    nu_plus^2 <= 0 or a discriminant below -1e-12 raises ValueError."""
    b1, b2, c, d = params.b1, params.b2, params.c, params.d
    det_v = (b1 * b2 - c * c) * (b1 * b2 - d * d)
    s = b1 * b1 + b2 * b2 + 2 * c * d
    disc = s * s - 4 * det_v
    hi = (s + np.sqrt(max(disc, 0.0))) / 2
    if not (disc >= -1e-12 and hi > 0 and det_v >= 0):
        raise ValueError(f"non-physical parameters: discriminant {disc:.3e}, det V {det_v:.3e}")
    return float(np.sqrt(det_v / hi)), float(np.sqrt(hi))


def two_mode_symplectic_pair_pt(params: TwoModeStandardParams) -> tuple[float, float]:
    """Symplectic eigenvalues of the partial transpose of a two-mode
    standard-form CM (the sign of d is flipped)."""
    flipped = TwoModeStandardParams(params.b1, params.b2, params.c, -params.d)
    return two_mode_symplectic_pair(flipped)


def _det2(m: np.ndarray) -> float:
    """The determinant of a 2x2 matrix, in closed form."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def standard_form_reduce_two_mode(
    V: CovarianceMatrix, tol: float | None = None
) -> tuple[TwoModeStandardParams, np.ndarray]:
    """Reduce a two-mode bona fide CM to standard form by local symplectics.

    Returns (params, S) where S = S_A (+) S_B is local symplectic and
    params is (b1, b2, c, d) in party order: b1 is Alice's local variance
    and b2 Bob's, so b1 < b2 is possible. S V S^T has scalar diagonal
    blocks and diagonal cross block with c >= |d| unless a b is clamped at
    1/2 as the doubles lost its block's determinant (Bob's vacuum mode
    squeezed by 9.3): S V S^T then departs from that form; read only params.

    Procedure: (1) the symmetric unit-determinant reducer N^(-1/2), with
    N = A / sqrt(det A), brings each local 2x2 block A to sqrt(det A) * I,
    so b = sqrt(det A), clamped at 1/2 where a heavily squeezed block's
    determinant is lost in the doubles; (2) local rotations diagonalize
    the reduced cross block via its SVD, so (c, d) are its singular values
    s1 >= s2 >= 0, with d = -s2 wherever a reflection of the SVD is made a
    rotation, and c >= |d| by the SVD's order. No product with V is
    rebuilt. Local symplectics preserve the symplectic spectrum. The bona
    fide check is certify's: ``validate_bona_fide`` with tol (read by
    ``resolve_tolerance``), within the dead band max(tol, 8 eps max|V|).
    """
    tol = resolve_tolerance(tol)
    V = _as_cm(V)
    if V.n_modes != 2:
        raise ValueError(f"expected a two-mode CM, got {V.n_modes} modes")
    report = validate_bona_fide(V, tol=tol)
    if not report.bona_fide:
        raise ValueError(
            f"input CM is not bona fide (min RS eigenvalue {report.min_rs_eigenvalue:.3e})"
        )

    m = V.matrix
    reducers, b = [], []
    for k in (0, 1):
        blk = m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        det_blk = _det2(blk)
        if det_blk <= 0:
            raise ValueError("local block with non-positive determinant")
        root = np.sqrt(det_blk)
        # det N = 1, so by Cayley-Hamilton N^(-1/2) = (N^-1 + I) / sqrt(tr N + 2)
        # with N^-1 = adj(A) / sqrt(det A): symmetric with unit determinant,
        # hence symplectic. V is bona fide, so tr A >= 1 - 2 band and the
        # root's argument is positive
        adj = np.array([[blk[1, 1], -blk[0, 1]], [-blk[1, 0], blk[0, 0]]])
        reducers.append((adj / root + np.eye(2)) / np.sqrt((blk[0, 0] + blk[1, 1]) / root + 2.0))
        b.append(root)

    # local rotations diagonalize the reduced cross block; each reflection
    # of the SVD made a rotation flips the sign of its second row or column
    u, (c, d), vt = np.linalg.svd(reducers[0] @ m[0:2, 2:4] @ reducers[1].T)
    if _det2(u) < 0:
        u[:, 1] *= -1.0
        d = -d
    if _det2(vt) < 0:
        vt[1, :] *= -1.0
        d = -d
    S = local_direct_sum([u.T @ reducers[0], vt @ reducers[1]])
    params = TwoModeStandardParams(b1=max(b[0], 0.5), b2=max(b[1], 0.5), c=c, d=d)
    return params, S

