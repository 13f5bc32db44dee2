"""Correctness probes: how many flags ``stack_verdicts`` gets wrong on
three families of CMs whose true verdicts are known in closed form, and how
many pure TMSVs and multimode pure states it refuses, how the numeric
minimizer fares on pure TMSV, how far the sampling oracle lands above
it, and how far its local invariants drift under
local symplectics.

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
flags carry no marker. For ``product_grid`` it also reports, as
``nonphysical_doubles``, how many members called physical are non-physical
as doubles: their Bob block's exact determinant, taken with Fraction, is
below 1/4 (Alice's block is the vacuum's, 0.5 I exactly).

- ``pure_tmsv``: tmsv(r) on linspace(0, 15, 15001). Every member is
  physical. The probe reports how many members are refused as non-physical,
  how many of them fail the kernel's Cholesky factor, and the first r that
  is refused (null when none is).
- ``multimode_pure``: for n = 2, 3, 5 and 8 modes, 342 pure states each:
  tmsv(r) on Alice's first mode and Bob, for r in 1, 1.125, ..., 8 and six
  draws per r, with Alice's modes mixed by a random passive unitary and
  every mode squeezed by z uniform in [-2, 2], all drawn from seed n. Every
  member is physical; per n the probe reports how many are refused and how
  many fail the kernel's Cholesky factor.
- ``solver_tmsv``: the numeric ``sep_minus`` minimum of
  split_standard(tmsv(r)) for r on linspace(0, 9, 37), whose exact value
  is 1 at every r. The probe reports the worst |value - 1| and the r where
  it occurs.
- ``sampler_gap``: ``brute_force_min`` at its default budget and seed on
  the standard forms of random_standard(n, seed=0) for n = 2..8 and of
  the five CMs where the earlier 2n-dimensional sampler landed furthest
  above the sep_minus minimum (n = 6, 7, 6, 8, 7 with seeds 74, 91, 99,
  91, 92), each with every functional. The probe reports the worst gap
  above the numeric minimum, relative to it, and the call where it occurs.
- ``oracle_standard_form``: for each of the three families above, how
  many members are called physical, and how many of those the oracle's
  standard form (``cli._standardize``) refuses, grouped by the error's
  type and message up to its first comma, colon or parenthesis.
- ``local_drift``: for n = 2, 3 and 5, ten random_standard(n, seed) CMs
  each, every one under eight local symplectics (+)_j R(theta_j) S(z_j)
  per squeeze cap Z in {0, 3, 5, 7}, with theta uniform in [0, pi) and z
  uniform in [-Z, Z], all drawn from seed n. Local symplectics move no
  local invariant, so min_symplectic_eig, min_symplectic_eig_pt,
  det_ratio_ab, det_ratio_ba and schur_min_symplectic_eig should not move.
  Per cap the probe reports each one's worst relative drift from the
  untransformed CM's, over the members called physical, and how many
  members are refused.

The counts gate nothing.

Usage, from anywhere:

    python tests/data/probes.py

It prints one JSON line and exits 0. numpy and the standard library only,
besides cvwitness from this checkout's src/; deterministic.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cvwitness import (  # noqa: E402
    CovarianceMatrix,
    GeneratorSpec,
    brute_force_min,
    min_separability_sum_numeric,
    noisy_tmsv,
    random_standard,
    split_standard,
    stack_verdicts,
    tmsv,
)
from cvwitness.covariance import (  # noqa: E402
    DEFAULT_TOL,
    _decide_stack,
    local_direct_sum,
    one_mode_rotation,
    one_mode_squeeze,
    validate_stack,
)
from cvwitness.cli import _standardize  # noqa: E402
from cvwitness.criteria import WITNESS_KEYS  # noqa: E402
from cvwitness.optimize import FUNCTIONALS, _minimize_gauge_ratio  # noqa: E402

# (flag, its marker) as StackVerdicts names them
FLAGS = (("ppt", "marginal_ppt"), ("steerable_ab", "marginal_ab"), ("steerable_ba", "marginal_ba"))
RS = (0.3, 0.7, 1.5)
DELTAS = (1e-4, 1e-5, 1e-6, -1e-6, -1e-5, -1e-4)
ZS = np.linspace(0.0, 8.0, 33)
# the local invariants local_drift follows, and its squeeze caps
DRIFT_KEYS = ("min_symplectic_eig", "min_symplectic_eig_pt", "det_ratio_ab", "det_ratio_ba",
              "schur_min_symplectic_eig")
DRIFT_CAPS = (0, 3, 5, 7)
# (n, seed) of sampler_gap's random_standard CMs
SAMPLER_CMS = [(n, 0) for n in range(2, 9)] + [(6, 74), (7, 91), (6, 99), (8, 91), (7, 92)]


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


def nonphysical_doubles(cms: np.ndarray) -> int:
    """How many members of the product grid ``stack_verdicts`` calls physical
    although Bob's block, as doubles, has an exact determinant below 1/4."""
    physical = stack_verdicts(cms).physical
    below = 0
    for m in cms[physical]:
        (b11, b12), (b21, b22) = m[2:, 2:].tolist()
        below += Fraction(b11) * Fraction(b22) - Fraction(b12) * Fraction(b21) < Fraction(1, 4)
    return below


def refusals(cms: np.ndarray):
    """The members of a stack refused as non-physical and those that fail
    the kernel's factor, from one run of the decision ``stack_verdicts``
    makes, whose kernel witnesses say which members failed the factor."""
    kernel, (_, flags, *_) = _decide_stack(validate_stack(cms), DEFAULT_TOL)
    return ~flags[0], ~kernel.factored


def tmsv_refusals() -> dict:
    """The pure TMSV family's refusals, its failed factors and its first
    refused r."""
    rs = np.linspace(0.0, 15.0, 15001)
    refused, unfactored = refusals(GeneratorSpec("tmsv").build_stack("r", rs))
    return {"members": len(rs), "refused": int(refused.sum()), "factor_failures": int(unfactored.sum()),
            "first_refused_r": float(rs[refused.argmax()]) if refused.any() else None}


def passive(u: np.ndarray) -> np.ndarray:
    """The symplectic of the passive unitary u in interleaved (q, p)
    ordering: a_j -> sum_k u_jk a_k, mode block [[Re u, -Im u], [Im u, Re u]]."""
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, [[0.0, -1.0], [1.0, 0.0]])


def multimode_pure(n: int) -> np.ndarray:
    """The 342 pure n-mode states of ``multimode_pure``."""
    rng = np.random.default_rng(n)
    cms = []
    for r in np.arange(1.0, 8.0625, 0.125):
        base = 0.5 * np.eye(2 * n)
        base[-4:, -4:] = tmsv(float(r)).matrix
        for _ in range(6):
            # a Haar unitary on Alice's modes, from the QR of a complex Gaussian
            q, upper = np.linalg.qr(rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1)))
            mix = np.eye(2 * n)
            mix[:-2, :-2] = passive(q * (upper.diagonal() / abs(upper.diagonal())))
            s = local_direct_sum([one_mode_squeeze(z) for z in rng.uniform(-2.0, 2.0, n)]) @ mix
            cms.append(s @ base @ s.T)
    return np.stack(cms)


def multimode_refusals() -> dict:
    """The multimode pure family's members, refusals and failed factors per n."""
    out = {}
    for n in (2, 3, 5, 8):
        refused, unfactored = refusals(multimode_pure(n))
        out[f"n{n}"] = {"members": len(refused), "refused": int(refused.sum()),
                        "factor_failures": int(unfactored.sum())}
    return out


def solver_tmsv() -> dict:
    """The numeric sep_minus minima of pure TMSV: the worst distance from
    the exact minimum 1, and the r where it occurs."""
    rs = np.linspace(0.0, 9.0, 37).tolist()
    errors = [abs(min_separability_sum_numeric(split_standard(tmsv(r)), "minus").value - 1.0) for r in rs]
    worst = max(range(len(rs)), key=errors.__getitem__)
    return {"solves": len(rs), "worst_error": errors[worst], "worst_r": rs[worst]}


def sampler_gap() -> dict:
    """The sampling oracle's worst relative gap above the numeric minimum
    on SAMPLER_CMS with every functional, and where it occurs."""
    gaps = {}
    for n, seed in SAMPLER_CMS:
        sf = split_standard(random_standard(n, seed=seed))
        for functional in FUNCTIONALS:
            numeric = _minimize_gauge_ratio(sf, functional).value
            gaps[f"random_standard-{n}-{seed}-{functional}"] = (brute_force_min(sf, functional) - numeric) / numeric
    worst = max(gaps, key=gaps.__getitem__)
    return {"calls": len(gaps), "worst_gap": gaps[worst], "worst_call": worst}


def oracle_standard_form(cms: np.ndarray) -> dict:
    """One family's members called physical, and those of them that the
    oracle's standard form refuses, counted per error."""
    physical = stack_verdicts(cms).physical
    errors = Counter()
    for m in cms[physical]:
        try:
            _standardize(CovarianceMatrix(m), DEFAULT_TOL)
        except (ValueError, np.linalg.LinAlgError) as exc:
            errors[f"{type(exc).__name__}: {re.split(r'[,:(]', str(exc))[0].strip()}"] += 1
    return {"physical": int(physical.sum()), "refused": sum(errors.values()), "errors": dict(errors)}


def local_drift() -> dict:
    """Per squeeze cap, the worst relative drift of each local invariant in
    DRIFT_KEYS under local symplectics, and the members refused."""
    cols = [WITNESS_KEYS.index(key) for key in DRIFT_KEYS]
    worst = np.zeros((len(DRIFT_CAPS), len(cols)))
    refused = np.zeros(len(DRIFT_CAPS), dtype=int)
    for n in (2, 3, 5):
        rng = np.random.default_rng(n)
        cms = []
        for seed in range(10):
            base = random_standard(n, seed=seed).matrix
            cms.append(base)
            for cap in DRIFT_CAPS:
                for _ in range(8):
                    s = local_direct_sum([one_mode_rotation(t) @ one_mode_squeeze(z)
                                          for t, z in zip(rng.uniform(0.0, np.pi, n), rng.uniform(-cap, cap, n))])
                    cms.append(s @ base @ s.T)
        sv = stack_verdicts(np.stack(cms))
        # per base CM: the untransformed member, then 8 per cap
        physical = sv.physical.reshape(10, -1)
        assert physical[:, 0].all()
        w = sv.witnesses[:, cols].reshape(10, physical.shape[1], len(cols))
        drift = np.abs(w[:, 1:] - w[:, :1]) / np.abs(w[:, :1])
        drift = np.where(physical[:, 1:, None], drift, 0.0).reshape(10, len(DRIFT_CAPS), 8, len(cols))
        worst = np.maximum(worst, drift.max(axis=(0, 2)))
        refused += (~physical[:, 1:]).reshape(10, len(DRIFT_CAPS), 8).sum(axis=(0, 2))
    return {f"z{cap}": {"refused": int(refused[i]), **dict(zip(DRIFT_KEYS, worst[i].tolist()))}
            for i, cap in enumerate(DRIFT_CAPS)}


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
    line["product_grid"]["nonphysical_doubles"] = nonphysical_doubles(families["product_grid"][0])
    line["pure_tmsv"] = tmsv_refusals()
    line["multimode_pure"] = multimode_refusals()
    line["solver_tmsv"] = solver_tmsv()
    line["sampler_gap"] = sampler_gap()
    line["oracle_standard_form"] = {name: oracle_standard_form(cms) for name, (cms, _) in families.items()}
    line["local_drift"] = local_drift()
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
