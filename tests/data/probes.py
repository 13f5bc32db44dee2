"""Correctness probes: how many flags ``stack_verdicts`` gets wrong on
three families of CMs whose true verdicts are known in closed form.

- ``product_grid``: vacuum (+) a pure Bob mode rotated by theta (41 values
  in [0, pi/2]) and squeezed by z (121 values in [0, 12]). Every member is
  a physical product state: PPT and unsteerable both ways.
- ``bob_squeezed_thresholds``: noisy_tmsv(r, nbar, "A") at nbar = 1 - delta
  (the PPT threshold) and nbar = 1/2 - delta (the A->B threshold), with
  Bob's mode rotated by 0.3 and squeezed by z.
- ``alice_squeezed_ba``: noisy_tmsv(r, nbar, "A") at nbar = sinh^2 r /
  cosh 2r - delta (the B->A threshold), with Alice's mode rotated by 0.3
  and squeezed by z.

Both threshold families take r in {0.3, 0.7, 1.5}, delta in
+-{1e-4, 1e-5, 1e-6} and z in linspace(0, 8, 33). Local symplectics move
no local invariant, so noisy_tmsv(r, nbar, "A") is PPT iff nbar >= 1,
steers A->B iff nbar < 1/2, and steers B->A iff nbar < sinh^2 r / cosh 2r.

For each family the probe reports how many members are called physical
(every member is), and for each of the flags ppt, steerable_ab and
steerable_ba, among the members called physical: how many carry the flag's
marginal marker, how many get the flag wrong, and how many of those wrong
flags carry no marker. The counts gate nothing.

Usage, from anywhere:

    python tests/data/probes.py

It prints one JSON line and exits 0. numpy and the standard library only,
besides cvwitness from this checkout's src/; deterministic.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cvwitness import noisy_tmsv, stack_verdicts  # noqa: E402
from cvwitness.covariance import local_direct_sum, one_mode_rotation, one_mode_squeeze  # noqa: E402

# (flag, its marker) as StackVerdicts names them
FLAGS = (("ppt", "marginal_ppt"), ("steerable_ab", "marginal_ab"), ("steerable_ba", "marginal_ba"))
RS = (0.3, 0.7, 1.5)
DELTAS = (1e-4, 1e-5, 1e-6, -1e-6, -1e-5, -1e-4)
ZS = np.linspace(0.0, 8.0, 33)


def ba_threshold(r: float) -> float:
    """The Alice-side noise below which noisy_tmsv(r, nbar, "A") steers B->A."""
    return math.sinh(r) ** 2 / math.cosh(2 * r)


def product_grid():
    """The product states and their true flags (ppt, steerable_ab, steerable_ba)."""
    cms = []
    for theta in np.linspace(0.0, np.pi / 2, 41):
        for z in np.linspace(0.0, 12.0, 121):
            s = one_mode_rotation(theta) @ one_mode_squeeze(z)
            m = 0.5 * np.eye(4)
            m[2:, 2:] = 0.5 * s @ s.T
            cms.append(m)
    return np.stack(cms), np.tile([True, False, False], (len(cms), 1))


def threshold_family(nbars, party: str):
    """noisy_tmsv(r, nbar(r, delta), "A") with ``party``'s mode rotated and
    squeezed, for every (r, delta, z) and each nbar function in ``nbars``,
    and their true flags."""
    cms, truth = [], []
    for nbar_of in nbars:
        for r in RS:
            for delta in DELTAS:
                nbar = nbar_of(r, delta)
                base = noisy_tmsv(r, nbar, "A").matrix
                for z in ZS:
                    s = one_mode_rotation(0.3) @ one_mode_squeeze(z)
                    s = local_direct_sum([s, np.eye(2)] if party == "A" else [np.eye(2), s])
                    cms.append(s @ base @ s.T)
                    truth.append([nbar >= 1.0, nbar < 0.5, nbar < ba_threshold(r)])
    return np.stack(cms), np.array(truth)


def counts(cms: np.ndarray, truth: np.ndarray) -> dict:
    """The counts of one family, decided as one stack."""
    sv = stack_verdicts(cms)
    physical = sv.physical
    out = {"members": len(cms), "physical": int(physical.sum())}
    for k, (flag, marker) in enumerate(FLAGS):
        marked = getattr(sv, marker) & physical
        wrong = (getattr(sv, flag) != truth[:, k]) & physical
        out[flag] = {"marked": int(marked.sum()), "wrong": int(wrong.sum()),
                     "wrong_unmarked": int((wrong & ~marked).sum())}
    return out


def main() -> int:
    families = {
        "product_grid": product_grid(),
        "bob_squeezed_thresholds": threshold_family(
            (lambda r, delta: 1.0 - delta, lambda r, delta: 0.5 - delta), "B"
        ),
        "alice_squeezed_ba": threshold_family(
            (lambda r, delta: ba_threshold(r) - delta,), "A"
        ),
    }
    line = {name: counts(*family) for name, family in families.items()}
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
