import numpy as np
import pytest

from cvwitness import CovarianceMatrix, random_standard, thermal, tmsv
from cvwitness.covariance import local_direct_sum, one_mode_rotation, one_mode_squeeze


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


def product_cm(b1: float, b2: float) -> CovarianceMatrix:
    """Uncorrelated two-mode CM diag(b1, b1) (+) diag(b2, b2)."""
    return CovarianceMatrix(np.diag([b1, b1, b2, b2]))


def rotated(cm: CovarianceMatrix, thetas) -> CovarianceMatrix:
    """Conjugate a CM by per-mode phase rotations (a local symplectic)."""
    s = local_direct_sum([one_mode_rotation(t) for t in thetas])
    return CovarianceMatrix(s @ cm.matrix @ s.T)


def rotated_and_squeezed(cm: CovarianceMatrix, rng, max_z: float = 1.0) -> CovarianceMatrix:
    """Conjugate a CM by a random phase rotation times a squeeze
    (|z| <= max_z) on each mode, which moves it off standard form."""
    s = local_direct_sum(
        [one_mode_rotation(rng.uniform(0, np.pi)) @ one_mode_squeeze(rng.uniform(-max_z, max_z))
         for _ in range(cm.n_modes)]
    )
    return CovarianceMatrix(s @ cm.matrix @ s.T)
