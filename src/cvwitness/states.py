"""Reference and randomized bona fide covariance matrices in standard form.

All generators use the hbar = 1, vacuum-variance-1/2 convention and work
in interleaved ordering. Each kind has one stack builder that fills a
(k, 2n, 2n) float array for a whole parameter range with array
operations (``GeneratorSpec.build_stack``); the scalar generators
(``vacuum``, ``thermal``, ``tmsv``, ``noisy_tmsv``, ``random_standard``)
and ``GeneratorSpec.build`` are its stack of one wrapped in a
``CovarianceMatrix``, so a row of a stack equals the scalar result bit
for bit. Randomized generators are deterministic per seed (numpy PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceMatrix, TwoModeStandardParams, two_mode_symplectic_pair
from .covariance import _require_bob_last, _require_int, _symmetrized

__all__ = [
    "GeneratorSpec",
    "vacuum",
    "thermal",
    "tmsv",
    "noisy_tmsv",
    "random_standard",
    "random_two_mode_params",
]


def _vacuum_stack(n_modes: int, k: int) -> np.ndarray:
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return np.broadcast_to(0.5 * np.eye(2 * n_modes), (k, 2 * n_modes, 2 * n_modes)).copy()


def _thermal_stack(nbar: np.ndarray) -> np.ndarray:
    """Diagonal CMs, one per row of nbar (k, n): mode-j variances
    nbar[i, j] + 1/2."""
    if nbar.ndim != 2 or nbar.shape[1] < 1:
        raise ValueError("nbar must be a non-empty 1-D sequence")
    if (nbar < 0).any():
        raise ValueError("mean occupations must be non-negative")
    k, n = nbar.shape
    m = np.zeros((k, 2 * n, 2 * n))
    diag = np.arange(2 * n)
    m[:, diag, diag] = np.repeat(nbar + 0.5, 2, axis=1)
    return m


def _tmsv_stack(r: np.ndarray, nbar=0.0, side: str = "A") -> np.ndarray:
    """Interleaved TMSV matrices, one per entry of r (k,): b = cosh(2r)/2
    on the diagonal, c = sinh(2r)/2 between the two q's and -c between
    the two p's, with nbar (scalar or (k,)) added to the diagonal of
    ``side``'s block."""
    nbar = np.asarray(nbar, dtype=float)
    if (nbar < 0).any():
        raise ValueError("noise occupation must be >= 0")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if (r < 0).any():
        raise ValueError("squeezing parameter must be >= 0")
    b = np.cosh(2 * r) / 2
    c = np.sinh(2 * r) / 2
    m = np.zeros((r.size, 4, 4))
    diag = np.arange(4)
    m[:, diag, diag] = b[:, None]
    m[:, 0, 2] = m[:, 2, 0] = c
    m[:, 1, 3] = m[:, 3, 1] = -c
    noisy = diag[:2] if side == "A" else diag[2:]
    m[:, noisy, noisy] += nbar[..., None]
    return m


# resampling budget of random_standard's condition-number rejection
_MAX_TRIES = 100


def _random_standard_stack(n_modes: int, seeds) -> np.ndarray:
    """``random_standard`` for each seed, in interleaved ordering.

    Each seed's generator draws nu and then S_q candidates in the order
    the one-seed construction does; one batched ``cond`` checks every
    pending candidate and only the rejected seeds draw again. Then
    V_q = S_q D S_q^T and V_p = S_p D S_p^T with S_p = S_q^-T, from one
    batched ``inv``.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    n = n_modes
    rngs = [np.random.default_rng(seed) for seed in seeds]
    nu = np.array([rng.uniform(0.5, 3.0, size=n) for rng in rngs]).reshape(-1, n)
    sq = np.array([rng.standard_normal((n, n)) for rng in rngs]).reshape(-1, n, n)
    pending = np.arange(len(rngs))
    for _ in range(_MAX_TRIES):
        pending = pending[~(np.linalg.cond(sq[pending]) < 50)]
        if not pending.size:
            break
        for i in pending:
            sq[i] = rngs[i].standard_normal((n, n))
    else:
        raise RuntimeError(f"no well-conditioned S_q found in {_MAX_TRIES} draws")
    d = nu[:, :, None] * np.eye(n)
    sp = np.swapaxes(np.linalg.inv(sq), 1, 2)
    m = np.zeros((len(rngs), 2 * n, 2 * n))
    m[:, ::2, ::2] = sq @ d @ np.swapaxes(sq, 1, 2)
    m[:, 1::2, 1::2] = sp @ d @ np.swapaxes(sp, 1, 2)
    # the symmetrization CovarianceMatrix applies, so a row is its matrix
    return _symmetrized(m)


def vacuum(n_modes: int = 2) -> CovarianceMatrix:
    """Vacuum CM (1/2) * identity; every symplectic eigenvalue is 1/2."""
    return CovarianceMatrix(_vacuum_stack(n_modes, 1)[0])


def thermal(nbar) -> CovarianceMatrix:
    """Thermal-state CM with per-mode occupations.

    Args:
        nbar: sequence of mean photon numbers, one per mode, each >= 0.

    Returns:
        Diagonal CM with mode-k variances nbar_k + 1/2.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    return CovarianceMatrix(_thermal_stack(nbar[None])[0])


def tmsv(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum CM with squeezing parameter r >= 0.

    Standard form with b1 = b2 = cosh(2r)/2, c = -d = sinh(2r)/2; the
    state is pure (det V = 1/16) for every r.
    """
    return CovarianceMatrix(_tmsv_stack(np.array([r], dtype=float))[0])


def noisy_tmsv(r: float, nbar: float, side: str = "A") -> CovarianceMatrix:
    """Two-mode squeezed vacuum with classical thermal noise added to one
    party's block.

    Args:
        r: squeezing parameter, >= 0.
        nbar: noise occupation added as nbar * identity to the chosen
            party's 2x2 block, >= 0.
        side: "A" (first mode) or "B" (second mode).

    Adding classical noise preserves physicality, so the output is bona
    fide for all parameter values.
    """
    return CovarianceMatrix(_tmsv_stack(np.array([r], dtype=float), nbar, side)[0])


def random_standard(n_modes: int, seed: int = 0) -> CovarianceMatrix:
    """Random bona fide standard-form CM, deterministic per seed.

    Builds V = S (D (+) D) S^T in block ordering with D = diag(nu_1..nu_n),
    nu_k ~ U[1/2, 3], and S = S_q (+) S_q^-T where S_q has standard-normal
    entries conditioned on cond(S_q) < 50. The block shape of S makes it
    symplectic and standard-form preserving, so the symplectic spectrum of
    the output is exactly the sampled nu_k.

    Args:
        n_modes: total number of modes, >= 2.
        seed: RNG seed.
    """
    return CovarianceMatrix(_random_standard_stack(n_modes, [seed])[0])


def random_two_mode_params(
    seed: int = 0,
    d_sign: int = 0,
    min_abs_d: float = 0.0,
) -> TwoModeStandardParams:
    """Random physical two-mode standard-form parameters with local
    variances b1, b2 in [1/2, 2.5] (rejection sampled until the smallest
    symplectic eigenvalue is >= 1/2).

    Args:
        seed: RNG seed.
        d_sign: -1 forces d < 0, +1 forces d > 0, 0 leaves d unconstrained.
        min_abs_d: lower bound on |d|, finite and >= 0 (for sign-rule corpora).
    """
    if isinstance(d_sign, bool) or d_sign not in (-1, 0, 1):
        raise ValueError(f"d_sign must be -1, 0 or 1, got {d_sign!r}")
    if not (math.isfinite(min_abs_d) and min_abs_d >= 0):
        raise ValueError(f"min_abs_d must be finite and >= 0, got {min_abs_d!r}")
    gen = np.random.default_rng(seed)
    for _ in range(10_000):
        b1, b2 = np.sort(gen.uniform(0.5, 2.5, size=2))[::-1]
        c = gen.uniform(0.0, np.sqrt(b1 * b2) * 0.999)
        d = gen.uniform(min_abs_d, max(c, min_abs_d))
        if d > c:
            continue
        if d_sign < 0:
            d = -d
        elif d_sign == 0 and gen.random() < 0.5:
            d = -d
        params = TwoModeStandardParams(b1=b1, b2=b2, c=c, d=d)
        if two_mode_symplectic_pair(params)[0] >= 0.5:
            return params
    raise RuntimeError("rejection sampling budget exhausted")


def _seed(value) -> int:
    """``value`` as a seed: an integer >= 0, or a float equal to one (a
    swept range is float); a bool, a fraction, a negative number or a
    non-number raises ValueError."""
    if isinstance(value, np.generic):
        value = value.item()
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
        or value < 0
    ):
        raise ValueError(f"seed values are not integers >= 0: {value!r}")
    return int(value)


@dataclass
class GeneratorSpec:
    """Description of a state-generator call.

    ``kind`` is one of vacuum, thermal, tmsv, noisy_tmsv, random_standard;
    ``params`` holds the generator arguments (r, nbar, side, seed, ...).
    A thermal ``nbar`` is one occupation for every mode or a list of
    exactly ``n_modes`` of them. ``tmsv`` and ``noisy_tmsv`` are 2-mode
    states and reject any other ``n_modes``. Bob holds the last mode, so
    a ``params["n_alice"]`` other than ``n_modes - 1`` is rejected. A
    ``params["seed"]`` must be an integer >= 0.
    """

    kind: str
    n_modes: int = 2
    params: dict = field(default_factory=dict)

    KINDS = ("vacuum", "thermal", "tmsv", "noisy_tmsv", "random_standard")
    # the numeric parameters each kind reads, the ones a sweep may vary
    NUMERIC_PARAMS = {
        "vacuum": (),
        "thermal": ("nbar",),
        "tmsv": ("r",),
        "noisy_tmsv": ("r", "nbar"),
        "random_standard": ("seed",),
    }

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        _require_int("n_modes", self.n_modes, 1)
        if self.kind in ("tmsv", "noisy_tmsv") and self.n_modes != 2:
            raise ValueError(f"{self.kind} is a 2-mode state, got n_modes = {self.n_modes}")
        _require_bob_last(self.params.get("n_alice"), self.n_modes)
        if "seed" in self.params:
            _seed(self.params["seed"])

    def build(self) -> CovarianceMatrix:
        """The CM this spec describes: the stack of one of its kind's
        stack builder."""
        return CovarianceMatrix(self._stack({}, 1)[0])

    def build_stack(self, param: str, values) -> np.ndarray:
        """The CMs this spec describes with ``param`` set to each of
        ``values`` in turn, as a (k, 2n, 2n) interleaved float array with
        Bob holding the last mode: the array ``certify_many`` reads. Row
        i equals ``build()`` of the spec with ``param = values[i]`` bit
        for bit.

        Raises ValueError when the kind does not read ``param`` or when a
        seed is not an integer >= 0.
        """
        reads = self.NUMERIC_PARAMS[self.kind]
        if param not in reads:
            names = ", ".join(reads) if reads else "no parameter"
            raise ValueError(f"{self.kind} does not read {param!r}; it reads {names}")
        if param == "seed":
            values = [_seed(v) for v in values]
        else:
            values = np.asarray(values, dtype=float)
        return self._stack({param: values}, len(values))

    def _stack(self, varied: dict, k: int) -> np.ndarray:
        """k CMs from ``params`` with the (k,)-long entries of ``varied``
        in place of the fixed values."""
        p = {**self.params, **varied}

        def column(name):
            return np.broadcast_to(np.asarray(p.get(name, 0.0), dtype=float), (k,))

        if self.kind == "vacuum":
            return _vacuum_stack(self.n_modes, k)
        if self.kind == "thermal":
            nbar = np.asarray(p.get("nbar", 0.0), dtype=float)
            if "nbar" in varied:
                nbar = nbar[:, None]
            elif nbar.ndim == 1 and nbar.size != self.n_modes:
                raise ValueError(
                    f"thermal got {nbar.size} occupations for {self.n_modes} modes"
                )
            return _thermal_stack(np.broadcast_to(nbar, (k, self.n_modes)))
        if self.kind == "tmsv":
            return _tmsv_stack(column("r"))
        if self.kind == "noisy_tmsv":
            return _tmsv_stack(column("r"), column("nbar"), side=p.get("side", "A"))
        seeds = p["seed"] if "seed" in varied else [int(p.get("seed", 0))]
        return _random_standard_stack(self.n_modes, seeds)
