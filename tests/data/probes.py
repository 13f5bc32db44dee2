"""Correctness probes: how many flags ``stack_verdicts`` gets wrong on
three families of CMs whose true verdicts are known in closed form, and how
many pure TMSVs it refuses.

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
flags carry no marker.

- ``pure_tmsv``: tmsv(r) on linspace(0, 15, 15001). Every member is
  physical. The probe reports how many members are refused as non-physical,
  how many of them fail the kernel's Cholesky factor, and the first r that
  is refused (null when none is).

The counts gate nothing.

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

from cvwitness import GeneratorSpec, noisy_tmsv, stack_verdicts  # noqa: E402
from cvwitness.covariance import (  # noqa: E402
    DEFAULT_TOL,
    _decide_stack,
    local_direct_sum,
    one_mode_rotation,
    one_mode_squeeze,
    validate_stack,
)

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


def tmsv_refusals() -> dict:
    """The pure TMSV family's refusals, its failed factors and its first
    refused r, from one run of the decision ``stack_verdicts`` makes, whose
    kernel witnesses say which members failed the factor."""
    rs = np.linspace(0.0, 15.0, 15001)
    kernel, (_, flags, *_) = _decide_stack(validate_stack(GeneratorSpec("tmsv").build_stack("r", rs)), DEFAULT_TOL)
    refused, unfactored = ~flags[0], ~kernel.factored
    return {"members": len(rs), "refused": int(refused.sum()), "factor_failures": int(unfactored.sum()),
            "first_refused_r": float(rs[refused.argmax()]) if refused.any() else None}


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
    line["pure_tmsv"] = tmsv_refusals()
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
