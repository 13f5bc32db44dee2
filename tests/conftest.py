import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from cvwitness import CovarianceMatrix, covariance, random_standard, thermal, tmsv
from cvwitness.covariance import (
    local_direct_sum,
    one_mode_rotation,
    one_mode_squeeze,
    symplectic_eigenvalues,
)


# the pin tests import tests/data/freeze.py, which renders each pinned file
sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))


def pytest_configure(config):
    np.seterr(all="raise", under="ignore")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def assorted_cms():
    """A small corpus of bona fide CMs spanning the generator families."""
    from cvwitness import noisy_tmsv, vacuum

    cms = [
        vacuum(2),
        vacuum(3),
        thermal([0.5, 0.2]),
        tmsv(0.3),
        tmsv(1.2),
        noisy_tmsv(0.7, 0.4, "A"),
        noisy_tmsv(0.5, 0.8, "B"),
    ]
    cms += [random_standard(2, seed=s) for s in range(3)]
    cms += [random_standard(3, seed=s) for s in range(3)]
    cms += [random_standard(4, seed=s) for s in range(2)]
    return cms


# numpy.linalg's public functions that run LAPACK
_LINALG_WRAPPERS = ("cholesky", "eigvalsh", "eigh", "eigvals", "eig", "solve", "inv", "det", "slogdet", "svd",
                    "lstsq", "qr", "pinv", "norm", "cond", "matrix_rank")


# the LAPACK gufuncs as the kernel binds them: (module, name, key)
_GUFUNC_NAMES = ((covariance, "_cholesky_lo", "cholesky"), (covariance, "_eigvalsh_lo", "eigvalsh"))


def count_lapack(monkeypatch) -> dict:
    """Count the calls of the LAPACK gufuncs that the kernel binds at
    module level, and fail the test on any call of a numpy.linalg wrapper;
    build the inputs first, as the generators call numpy.linalg. Returns
    {"cholesky" | "eigvalsh": [operand shapes of each call]}, filled as the
    calls happen."""
    calls = {}

    def counted(*operands, _gufunc, _key, **kwargs):
        calls.setdefault(_key, []).append(operands[0].shape if len(operands) == 1 else
                                          tuple(a.shape for a in operands))
        return _gufunc(*operands, **kwargs)

    def refused(*args, _name, **kwargs):
        pytest.fail(f"numpy.linalg.{_name} called")

    for module, name, key in _GUFUNC_NAMES:
        monkeypatch.setattr(module, name, functools.partial(counted, _gufunc=getattr(module, name), _key=key))
    for name in _LINALG_WRAPPERS:
        monkeypatch.setattr(np.linalg, name, functools.partial(refused, _name=name))
    return calls


def purity(cm) -> float:
    """Purity 1 / (2^n sqrt(det V)) of the Gaussian state with this CM, as
    the product of 1 / (2 nu_k) over its symplectic eigenvalues."""
    return float(np.prod(0.5 / symplectic_eigenvalues(cm)))


def product_cm(b1: float, b2: float) -> CovarianceMatrix:
    """Uncorrelated two-mode CM diag(b1, b1) (+) diag(b2, b2)."""
    return CovarianceMatrix(np.diag([b1, b1, b2, b2]))


def rotated(cm: CovarianceMatrix, thetas) -> CovarianceMatrix:
    """Conjugate a CM by per-mode phase rotations (a local symplectic)."""
    s = local_direct_sum([one_mode_rotation(t) for t in thetas])
    return CovarianceMatrix(s @ cm.matrix @ s.T)


def product_grid_member(i: int, j: int) -> CovarianceMatrix:
    """Vacuum (+) Bob's vacuum mode squeezed by z and rotated by theta, at
    theta = linspace(0, pi/2, 41)[i] and z = linspace(0, 12, 121)[j], built
    as tests/data/probes.py's product grid builds it."""
    s = one_mode_rotation(np.linspace(0.0, np.pi / 2, 41)[i]) @ one_mode_squeeze(np.linspace(0.0, 12.0, 121)[j])
    m = 0.5 * np.eye(4)
    m[2:, 2:] = 0.5 * s @ s.T
    return CovarianceMatrix(m)


def rotated_and_squeezed(cm: CovarianceMatrix, rng, max_z: float = 1.0) -> CovarianceMatrix:
    """Conjugate a CM by a random phase rotation times a squeeze
    (|z| <= max_z) on each mode, which moves it off standard form."""
    s = local_direct_sum(
        [one_mode_rotation(rng.uniform(0, np.pi)) @ one_mode_squeeze(rng.uniform(-max_z, max_z))
         for _ in range(cm.n_modes)]
    )
    return CovarianceMatrix(s @ cm.matrix @ s.T)


def noisy_tmsv_phase_diagram(r: float, side: str, tol: float) -> dict:
    """The closed-form phase diagram of ``noisy_tmsv(r, n, side)``, as the
    noise n below which each certify flag is raised (``ppt`` is raised
    at and above its value): the noisy party X steers the other iff
    n < 1/2, the other party steers X iff n < sinh^2 r / cosh 2r, and the
    state is non-PPT iff n < 1. V/V_A and V/V_B are scalar 2x2 blocks,
    which gives the first two; the third is Simon's criterion.

    Returns {flag: (n_c, margin)}. ``margin`` bounds how far certify's
    dead band moves the flip from n_c: about tol (2 cosh 2r/(cosh 2r - 1)
    + 1), as measured by bisection for r in [0.02, 3], doubled."""
    c2 = float(np.cosh(2 * r))
    margin = 2 * tol * (2 * c2 / (c2 - 1) + 1)
    own, other = ("steerable_a_to_b", "steerable_b_to_a")[:: 1 if side == "A" else -1]
    return {own: (0.5, margin), other: (float(np.sinh(r)) ** 2 / c2, margin), "ppt": (1.0, margin)}
