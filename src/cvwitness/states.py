"""Reference and randomized bona fide covariance matrices in standard form.

All generators use the hbar = 1, vacuum-variance-1/2 convention and return
``CovarianceMatrix`` objects in interleaved ordering. Randomized generators
are deterministic per seed (numpy PCG64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceMatrix, TwoModeStandardParams, two_mode_symplectic_pair

__all__ = [
    "GeneratorSpec",
    "vacuum",
    "thermal",
    "tmsv",
    "noisy_tmsv",
    "random_standard",
    "random_two_mode_params",
]


def vacuum(n_modes: int = 2) -> CovarianceMatrix:
    """Vacuum CM (1/2) * identity; every symplectic eigenvalue is 1/2."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return CovarianceMatrix(0.5 * np.eye(2 * n_modes))


def thermal(nbar) -> CovarianceMatrix:
    """Thermal-state CM with per-mode occupations.

    Args:
        nbar: sequence of mean photon numbers, one per mode, each >= 0.

    Returns:
        Diagonal CM with mode-k variances nbar_k + 1/2.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    if nbar.ndim != 1 or nbar.size < 1:
        raise ValueError("nbar must be a non-empty 1-D sequence")
    if np.any(nbar < 0):
        raise ValueError("mean occupations must be non-negative")
    return CovarianceMatrix(np.diag(np.repeat(nbar + 0.5, 2)))


def _tmsv_matrix(r: float) -> np.ndarray:
    """Interleaved TMSV matrix: b = cosh(2r)/2 on the diagonal, c = sinh(2r)/2
    between the two q's and -c between the two p's."""
    if r < 0:
        raise ValueError("squeezing parameter must be >= 0")
    b = np.cosh(2 * r) / 2
    c = np.sinh(2 * r) / 2
    return np.array(
        [
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, -c],
            [c, 0.0, b, 0.0],
            [0.0, -c, 0.0, b],
        ]
    )


def tmsv(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum CM with squeezing parameter r >= 0.

    Standard form with b1 = b2 = cosh(2r)/2, c = -d = sinh(2r)/2; the
    state is pure (det V = 1/16) for every r.
    """
    return CovarianceMatrix(_tmsv_matrix(r))


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
    if nbar < 0:
        raise ValueError("noise occupation must be >= 0")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    m = _tmsv_matrix(r)
    k = 0 if side == "A" else 2
    m[k, k] += nbar
    m[k + 1, k + 1] += nbar
    return CovarianceMatrix(m)


def random_standard(
    n_modes: int, n_alice: int | None = None, seed: int = 0, max_tries: int = 100
) -> CovarianceMatrix:
    """Random bona fide standard-form CM, deterministic per seed.

    Builds V = S (D (+) D) S^T in block ordering with D = diag(nu_1..nu_n),
    nu_k ~ U[1/2, 3], and S = S_q (+) S_q^-T where S_q has standard-normal
    entries conditioned on cond(S_q) < 50. The block shape of S makes it
    symplectic and standard-form preserving, so the symplectic spectrum of
    the output is exactly the sampled nu_k.

    Args:
        n_modes: total number of modes, >= 2.
        n_alice: Alice's mode count; defaults to n_modes - 1.
        seed: RNG seed.
        max_tries: resampling budget for the condition-number rejection.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.5, 3.0, size=n_modes)
    for _ in range(max_tries):
        sq = rng.standard_normal((n_modes, n_modes))
        if np.linalg.cond(sq) < 50:
            break
    else:
        raise RuntimeError(f"no well-conditioned S_q found in {max_tries} draws")
    d = np.diag(nu)
    vq = sq @ d @ sq.T
    sp = np.linalg.inv(sq).T
    vp = sp @ d @ sp.T
    full = np.zeros((2 * n_modes, 2 * n_modes))
    full[:n_modes, :n_modes] = vq
    full[n_modes:, n_modes:] = vp
    return CovarianceMatrix(full, n_alice=n_alice, ordering="block")


def random_two_mode_params(
    seed: int = 0,
    d_sign: int = 0,
    b_max: float = 2.5,
    min_abs_d: float = 0.0,
    rng: np.random.Generator | None = None,
) -> TwoModeStandardParams:
    """Random physical two-mode standard-form parameters (rejection
    sampled until the smallest symplectic eigenvalue is >= 1/2).

    Args:
        seed: RNG seed, ignored when an explicit generator is passed.
        d_sign: -1 forces d < 0, +1 forces d > 0, 0 leaves d unconstrained.
        b_max: upper bound for the local variances b1, b2.
        min_abs_d: lower bound on |d| (useful for sign-rule corpora).
        rng: optional generator to draw from instead of a fresh seed.
    """
    gen = rng if rng is not None else np.random.default_rng(seed)
    for _ in range(10_000):
        b1, b2 = np.sort(gen.uniform(0.5, b_max, size=2))[::-1]
        c = gen.uniform(0.0, np.sqrt(b1 * b2) * 0.999)
        d = gen.uniform(min_abs_d, max(c, min_abs_d))
        if d > c:
            continue
        if d_sign < 0:
            d = -d
        elif d_sign == 0 and gen.random() < 0.5:
            d = -d
        if abs(d) < min_abs_d:
            continue
        params = TwoModeStandardParams(b1=b1, b2=b2, c=c, d=d)
        try:
            nu_minus, _ = two_mode_symplectic_pair(params)
        except ValueError:
            continue
        if nu_minus >= 0.5:
            return params
    raise RuntimeError("rejection sampling budget exhausted")


@dataclass
class GeneratorSpec:
    """Serializable description of a state-generator call.

    ``kind`` is one of vacuum, thermal, tmsv, noisy_tmsv, random_standard;
    ``params`` holds the generator arguments (r, nbar, side, seed, ...).
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

    def build(self) -> CovarianceMatrix:
        p = self.params
        if self.kind == "vacuum":
            return vacuum(self.n_modes)
        if self.kind == "thermal":
            nbar = p.get("nbar", 0.0)
            if np.isscalar(nbar):
                nbar = [float(nbar)] * self.n_modes
            return thermal(nbar)
        if self.kind == "tmsv":
            return tmsv(float(p.get("r", 0.0)))
        if self.kind == "noisy_tmsv":
            return noisy_tmsv(
                float(p.get("r", 0.0)),
                float(p.get("nbar", 0.0)),
                side=p.get("side", "A"),
            )
        return random_standard(
            self.n_modes,
            n_alice=p.get("n_alice"),
            seed=int(p.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_modes": self.n_modes, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        return cls(
            kind=data["kind"],
            n_modes=int(data.get("n_modes", 2)),
            params=dict(data.get("params", {})),
        )
