"""The four benchmark workloads: inputs built from a seed, the operations
of one round, and the checks of their outputs against ``reference``.

Every workload repeats one fixed round of operations. Set-up builds the
inputs; the untimed first round produces the outputs that are checked;
each timed round must reproduce them exactly. The share of each input
family in a round is fixed, so counts per operation do not depend on the
seed and failures are the same share of the attempts in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cvwitness
from cvwitness import cli
import inputs
import reference as ref

TOL = 1e-9
# a witness may differ from its reference by ERR_SCALE * eps * cond(V),
# relative; the reference's own error is of the same order
ERR_SCALE = 64.0
FLAGS = ("ppt", "steerable_a_to_b", "steerable_b_to_a")
FUNCTIONALS = ("sep_plus", "sep_minus", "steer_ab", "steer_ba")


def _tmsv_exact(r: float, noise_a: float = 0.0, noise_b: float = 0.0) -> dict:
    """Reference witnesses of a noisy TMSV from its exact parameters."""
    out = ref.noisy_tmsv_closed_forms(r, noise_a, noise_b)
    b = np.cosh(2.0 * r) / 2.0
    # V/V_B is s * I with s = sqrt(det V) / (b + noise_b)
    s = (0.25 + b * (noise_a + noise_b) + noise_a * noise_b) / (b + noise_b)
    out["schur_rs_min"] = s - 0.5
    out["schur_norm"] = s
    return out


def matrix_refs(v: np.ndarray) -> dict:
    """Reference witnesses of one CM, computed from its matrix."""
    return {
        "nu_min_pt": float(ref.symplectic_spectrum(ref.partial_transpose(v))[0]),
        "det_ratio_ab": ref.det_ratio(v, "A"),
        "det_ratio_ba": ref.det_ratio(v, "B"),
        "schur_rs_min": ref.schur_rs_min(v),
        "schur_norm": ref.schur_norm(v),
    }


def _close(x: float, want: float, rel: float) -> bool:
    return abs(x - want) <= rel * max(abs(want), 1e-300)


def flag_zones(refs: dict, rel: float) -> dict:
    """For each verdict flag: the reference's zone (see ``ref.flag_zone``),
    the zone in which the flag is true, and its ``marginal_*`` witness."""
    return {
        "ppt": (ref.flag_zone(refs["nu_min_pt"], 0.5, TOL, rel * max(refs["nu_min_pt"], 0.5)),
                "above", "marginal_ppt"),
        "steerable_a_to_b": (ref.flag_zone(refs["det_ratio_ab"], 0.25, TOL, rel * max(refs["det_ratio_ab"], 0.25)),
                             "below", "marginal_ab"),
        "steerable_b_to_a": (ref.flag_zone(refs["schur_rs_min"], 0.0, TOL, rel * max(refs["schur_norm"], 0.5)),
                             "below", "marginal_ba"),
    }


def flag_problems(label: str, got: dict, zones: dict, marginals: dict | None) -> list[str]:
    """Outside the dead band widened by the error bound a flag must match
    the reference; inside it the ``marginal_*`` witness must be present
    (when the output reports witnesses, i.e. ``marginals`` is not None)."""
    problems = []
    for flag, (zone, true_zone, marker) in zones.items():
        if zone in ("above", "below") and got[flag] != (zone == true_zone):
            problems.append(f"{label}: {flag}={got[flag]} but the reference is {zone} the threshold")
        if zone == "band" and marginals is not None and marker not in marginals:
            problems.append(f"{label}: {flag} inside the dead band without {marker}")
    return problems


# --------------------------------------------------------- certify-stream


@dataclass
class Case:
    label: str
    v: np.ndarray
    nu_min: float  # smallest symplectic eigenvalue the input was built with
    exact: dict | None = None  # closed forms from the exact parameters
    kappa: float | None = None
    parent: int | None = None
    fault: bool = False


def certify_cases(rng) -> list[Case]:
    """One round of 200 inputs: 97 two-mode (24 of them moved out of
    standard form, 3 the TMSV r >= 10 fault), 93 with n = 3..8 modes and
    10 non-physical ones."""
    cases: list[Case] = []

    def add(case: Case) -> int:
        cases.append(case)
        return len(cases) - 1

    parents = []
    for k in range(40):
        nu = inputs.spectrum(rng, 2, pure=k % 4 == 0)
        parents.append(add(Case("two-mode", inputs.standard_cm(rng, nu), float(nu.min()))))
    for idx in parents[:24]:
        s = inputs.local_symplectic(rng)
        parent = cases[idx]
        add(Case("two-mode-nonstandard", s @ parent.v @ s.T, parent.nu_min, parent=idx))
    for _ in range(12):
        r = float(rng.uniform(0.0, 7.5))
        add(Case("tmsv", inputs.tmsv_cm(r), 0.5, exact=_tmsv_exact(r), kappa=float(np.exp(4 * r))))
    for k in range(16):
        r = float(rng.uniform(0.0, 6.0))
        nbar = float(10.0 ** rng.uniform(-2.0, 6.0))
        noise = (nbar, 0.0) if k % 2 == 0 else (0.0, nbar)
        exact = _tmsv_exact(r, *noise)
        add(Case("noisy-tmsv", inputs.tmsv_cm(r, *noise), exact["nu_min"], exact=exact))
    add(Case("vacuum", 0.5 * np.eye(4), 0.5))
    add(Case("vacuum", 0.5 * np.eye(6), 0.5))
    add(Case("thermal", np.diag([0.8, 0.8, 1.7, 1.7]), 0.8))
    for r in (10.0, 11.0, 12.0):
        add(Case("tmsv-fault", inputs.tmsv_cm(r), 0.5, exact=_tmsv_exact(r), fault=True))
    for n, count in ((3, 35), (4, 28), (5, 10), (6, 8), (7, 6), (8, 5)):
        for k in range(count):
            nu = inputs.spectrum(rng, n, pure=k % 4 == 0)
            add(Case(f"{n}-mode", inputs.standard_cm(rng, nu), float(nu.min())))
    for k in range(10):
        nu = rng.uniform(0.5, 3.0, 2 + k % 3)
        nu[rng.integers(nu.size)] = rng.uniform(0.2, 0.45)
        add(Case("non-physical", inputs.standard_cm(rng, nu), float(nu.min())))
    return cases


class CertifyStream:
    name = "certify-stream"

    def __init__(self, seed: int, workdir: Path):
        self.cases = certify_cases(np.random.default_rng([seed, 1]))
        cms = [cvwitness.CovarianceMatrix(c.v) for c in self.cases]
        self.ops = [lambda cm=cm: cvwitness.certify(cm, tol=TOL) for cm in cms]
        self.items_per_op = 1

    same = staticmethod(operator.eq)

    def check(self, outputs: list) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        for case, out in zip(self.cases, outputs):
            if isinstance(out, Exception):
                failed.append(True)
                problems.append(f"{case.label}: raised {type(out).__name__}: {out}")
                continue
            if case.fault:
                expected = (True, False, True, True)
                got = (out.physical, out.ppt, out.steerable_a_to_b, out.steerable_b_to_a)
                failed.append(got != expected)
                continue
            failed.append(False)
            problems += self._problems(case, out)
        for idx, case in enumerate(self.cases):
            if case.parent is not None and not isinstance(outputs[idx], Exception):
                problems += self._parent_problems(case, outputs[idx], outputs[case.parent])
        return failed, problems

    def _refs(self, case: Case) -> tuple[dict, float]:
        refs = dict(case.exact) if case.exact else matrix_refs(case.v)
        kappa = case.kappa if case.kappa is not None else ref.condition_number(case.v)
        return refs, ERR_SCALE * ref.EPS * kappa

    def _problems(self, case: Case, out) -> list[str]:
        label = case.label
        w = out.witnesses
        problems = []
        rs = ref.min_rs_eig(case.v)
        rs_err = ERR_SCALE * ref.EPS * float(np.abs(case.v).sum(axis=1).max())
        if abs(w["min_rs_eig"] - rs) > rs_err:
            problems.append(f"{label}: min_rs_eig {w['min_rs_eig']!r} vs reference {rs!r}")
        physical = case.nu_min >= 0.5
        if out.physical != physical:
            return problems + [f"{label}: physical={out.physical}, built with nu_min={case.nu_min}"]
        if not physical:
            if rs >= -TOL - rs_err:
                problems.append(f"{label}: reference min eig of V + iJ/2 is {rs!r}")
            flags = (out.ppt, out.separable_necessary_met, out.steerable_a_to_b, out.steerable_b_to_a)
            if flags != (None,) * 4 or set(w) != {"min_rs_eig"}:
                problems.append(f"{label}: non-physical verdict carries flags or witnesses")
            return problems
        refs, rel = self._refs(case)
        if not _close(w["min_symplectic_eig"], case.nu_min, rel + 1e-12):
            problems.append(f"{label}: min_symplectic_eig {w['min_symplectic_eig']!r} vs built {case.nu_min!r}")
        for key, ref_key in (("min_symplectic_eig_pt", "nu_min_pt"), ("det_ratio_ab", "det_ratio_ab")):
            if not _close(w[key], refs[ref_key], 2 * rel + 1e-12):
                problems.append(f"{label}: {key} {w[key]!r} vs reference {refs[ref_key]!r} (rel tol {2 * rel:.1e})")
        got = {flag: getattr(out, flag) for flag in FLAGS}
        return problems + flag_problems(label, got, flag_zones(refs, 2 * rel), w)

    def _parent_problems(self, case: Case, out, parent_out) -> list[str]:
        """Local symplectics leave every verdict unchanged: each flag the
        reference decides must agree with the standard-form parent's."""
        refs, rel = self._refs(self.cases[case.parent])
        problems = []
        if out.physical != parent_out.physical:
            problems.append(f"{case.label}: physical differs from its standard-form parent")
        for flag, (zone, _, _) in flag_zones(refs, 2 * rel).items():
            if zone in ("above", "below") and getattr(out, flag) != getattr(parent_out, flag):
                problems.append(f"{case.label}: {flag} differs from its standard-form parent")
        return problems


# -------------------------------------------------------------- CLI helper


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cvwitness`` in-process with stdout captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()



# -------------------------------------------------------------- sweep-cli

SWEEP_ROWS = 100


class SweepCli:
    name = "sweep-cli"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        k = SWEEP_ROWS
        r_hi = float(rng.uniform(2.0, 5.0))
        r_a, r_b = (float(x) for x in rng.uniform(0.3, 1.5, 2))
        n_a, n_b = (float(x) for x in rng.uniform(1.0, 6.0, 2))
        s0 = int(rng.integers(0, 1_000_000))
        tol = ["--tol", repr(TOL)]
        self.sweeps = [
            ("tmsv", None, ["sweep", "tmsv", "--param", "r", "--range", f"0,{r_hi!r},{k}", *tol]),
            ("noisy-A", r_a, ["sweep", "noisy_tmsv", "--r", repr(r_a), "--side", "A",
                              "--param", "nbar", "--range", f"0,{n_a!r},{k}", *tol]),
            ("noisy-B", r_b, ["sweep", "noisy_tmsv", "--r", repr(r_b), "--side", "B",
                              "--param", "nbar", "--range", f"0,{n_b!r},{k}", *tol]),
            ("random", None, ["sweep", "random_standard", "--n", "4", "--param", "seed",
                              "--range", f"{s0},{s0 + k - 1},{k}", *tol]),
        ]
        self.ops = [lambda argv=argv: run_cli(argv) for _, _, argv in self.sweeps]
        self.items_per_op = k

    same = staticmethod(operator.eq)

    def check(self, outputs: list) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        for (kind, r, _), out in zip(self.sweeps, outputs):
            if isinstance(out, Exception):
                failed.append(True)
                problems.append(f"sweep {kind}: raised {type(out).__name__}: {out}")
                continue
            failed.append(False)
            problems += self._problems(kind, r, *out)
        return failed, problems

    def _row_refs(self, kind: str, r, value: float) -> tuple[dict, float]:
        if kind == "tmsv":
            return _tmsv_exact(value), float(np.exp(4 * value))
        if kind == "random":
            v = cvwitness.random_standard(4, seed=int(value)).matrix
            return matrix_refs(v), ref.condition_number(v)
        noise = (value, 0.0) if kind == "noisy-A" else (0.0, value)
        return _tmsv_exact(r, *noise), ref.condition_number(inputs.tmsv_cm(r, *noise))

    def _problems(self, kind: str, r, code: int, text: str) -> list[str]:
        label = f"sweep {kind}"
        if code != 0:
            return [f"{label}: exit code {code}"]
        lines = text.rstrip("\n").split("\n")
        col = {name: i for i, name in enumerate(lines[0].split(","))}
        rows = [line.split(",") for line in lines[1:]]
        problems = []
        if len(rows) != SWEEP_ROWS:
            problems.append(f"{label}: {len(rows)} rows, expected {SWEEP_ROWS}")
        previous = None
        for row in rows:
            value = float(row[0])
            flags = {f: row[col[f]] == "true" for f in FLAGS}
            crossed = [f for f in FLAGS if previous is not None and previous[f] != flags[f]]
            if row[col["crossings"]] != ";".join(crossed):
                problems.append(f"{label} at {value!r}: crossings {row[col['crossings']]!r}, flags changed {crossed}")
            previous = flags
            if row[col["physical"]] != "true":
                problems.append(f"{label} at {value!r}: not physical")
                continue
            refs, kappa = self._row_refs(kind, r, value)
            rel = ERR_SCALE * ref.EPS * kappa
            nu_pt = float(row[col["min_symplectic_eig_pt"]])
            det_ab = float(row[col["det_ratio_ab"]])
            steer_ab_min = float(row[col["steer_sum_ab_min"]])
            if not _close(nu_pt, refs["nu_min_pt"], 2 * rel + 1e-12):
                problems.append(f"{label} at {value!r}: min_symplectic_eig_pt {nu_pt!r} vs {refs['nu_min_pt']!r}")
            if not _close(det_ab, refs["det_ratio_ab"], 2 * rel + 1e-12):
                problems.append(f"{label} at {value!r}: det_ratio_ab {det_ab!r} vs {refs['det_ratio_ab']!r}")
            if not _close(steer_ab_min, 2.0 * np.sqrt(refs["det_ratio_ab"]), 2 * rel + 1e-12):
                problems.append(f"{label} at {value!r}: steer_sum_ab_min {steer_ab_min!r}")
            problems += flag_problems(f"{label} at {value!r}", flags, flag_zones(refs, 2 * rel), None)
        return problems


# ------------------------------------------------------ oracle-crosscheck


class OracleCrosscheck:
    name = "oracle-crosscheck"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        two_mode = inputs.standard_cm(rng, inputs.spectrum(rng, 2, pure=True))
        s = inputs.local_symplectic(rng)
        matrices = {
            "two-mode": two_mode,
            "two-mode-nonstandard": s @ inputs.standard_cm(rng, inputs.spectrum(rng, 2)) @ s.T,
            "3-mode": inputs.standard_cm(rng, inputs.spectrum(rng, 3)),
            "4-mode": inputs.standard_cm(rng, inputs.spectrum(rng, 4)),
        }
        self.files = []
        for label, v in matrices.items():
            path = workdir / f"oracle-{label}.json"
            n = v.shape[0] // 2
            record = {"n_modes": n, "n_alice": n - 1, "ordering": "interleaved", "matrix": v.tolist()}
            path.write_text(json.dumps(record))
            self.files.append((label, v, str(path)))
        self.cases = [(label, v, f) for label, v, _ in self.files for f in FUNCTIONALS]
        self.ops = []
        for i, (label, v, path) in enumerate(self.files):
            for j, functional in enumerate(FUNCTIONALS):
                op_seed = str(seed * 16 + 4 * i + j)
                argv = ["oracle", path, "--functional", functional, "--seed", op_seed, "--tol", repr(TOL)]
                self.ops.append(lambda argv=argv: run_cli(argv))
        self.items_per_op = 1

    same = staticmethod(operator.eq)

    @staticmethod
    def reference_min(v: np.ndarray, functional: str) -> float | None:
        """Exact minimum where one is known: 2 nu~_min and 2 nu_min for the
        separability sums of a standard-form-equivalent CM, 2 sqrt(det V /
        det V_A) for A->B and, with two modes, 2 sqrt(det V / det V_B)."""
        if functional == "sep_plus":
            return 2.0 * float(ref.symplectic_spectrum(ref.partial_transpose(v))[0])
        if functional == "sep_minus":
            return 2.0 * float(ref.symplectic_spectrum(v)[0])
        if functional == "steer_ab":
            return 2.0 * np.sqrt(ref.det_ratio(v, "A"))
        if v.shape[0] == 4:
            return 2.0 * np.sqrt(ref.det_ratio(v, "B"))
        return None

    def check(self, outputs: list) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        for (label, v, functional), out in zip(self.cases, outputs):
            tag = f"oracle {label} {functional}"
            if isinstance(out, Exception):
                failed.append(True)
                problems.append(f"{tag}: raised {type(out).__name__}: {out}")
                continue
            failed.append(False)
            code, text = out
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
                continue
            record = json.loads(text)
            brute, numeric = record["brute_force_min"], record["numeric_min"]
            want = self.reference_min(v, functional)
            if want is None:
                if numeric > brute + 1e-9:
                    problems.append(f"{tag}: numeric {numeric!r} above oracle {brute!r}")
                continue
            if not want - 1e-9 <= brute <= want + 1e-3:
                problems.append(f"{tag}: oracle {brute!r} vs reference minimum {want!r}")
            if abs(numeric - want) > 1e-6:
                problems.append(f"{tag}: numeric {numeric!r} vs reference minimum {want!r}")
        return failed, problems


# ----------------------------------------------------- minimize-multimode


MINIMIZE_CMS_PER_N = 16


class MinimizeMultimode:
    name = "minimize-multimode"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.cases = []
        self.ops = []
        for n in range(2, 9):
            for k in range(MINIMIZE_CMS_PER_N):
                nu = inputs.spectrum(rng, n, pure=k % 4 == 0)
                v = inputs.standard_cm(rng, nu)
                vq, vp = ref.block_split(v)
                sf = cvwitness.StandardForm(vq=vq, vp=vp, n_alice=n - 1)
                for functional in ("sep_plus", "sep_minus", "steer_ba"):
                    self.cases.append((n, v, float(nu.min()), functional))
                    self.ops.append(self._op(sf, functional))
        self.items_per_op = 1

    @staticmethod
    def _op(sf, functional: str):
        if functional == "steer_ba":
            return lambda: cvwitness.min_steering_sum_ba_numeric(sf)
        sign = "plus" if functional == "sep_plus" else "minus"
        return lambda: cvwitness.min_separability_sum_numeric(sf, sign)

    @staticmethod
    def same(a, b) -> bool:
        return (
            (a.value, a.converged, a.boundary_flag, a.iterations, a.restarts_used)
            == (b.value, b.converged, b.boundary_flag, b.iterations, b.restarts_used)
            and np.array_equal(a.argmin_alpha, b.argmin_alpha)
            and np.array_equal(a.argmin_beta, b.argmin_beta)
        )

    def check(self, outputs: list) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        for (n, v, nu_min, functional), out in zip(self.cases, outputs):
            tag = f"minimize {n}-mode {functional}"
            if isinstance(out, Exception):
                failed.append(True)
                problems.append(f"{tag}: raised {type(out).__name__}: {out}")
                continue
            failed.append(False)
            vq, vp = ref.block_split(v)
            var_q, var_p, value = ref.normalized_sum(vq, vp, functional, out.argmin_alpha, out.argmin_beta)
            if abs(out.value - value) > 1e-9 * max(1.0, value):
                problems.append(f"{tag}: value {out.value!r}, evaluated at its weights {value!r}")
            if abs(var_q - var_p) > 1e-6 * max(1.0, value):
                problems.append(f"{tag}: variances {var_q!r} and {var_p!r} do not balance")
            if not out.converged:
                problems.append(f"{tag}: not converged")
            want = None
            if functional == "sep_plus":
                want = 2.0 * float(ref.symplectic_spectrum(ref.partial_transpose(v))[0])
            elif functional == "sep_minus":
                want = 2.0 * nu_min
            elif n == 2:
                want = 2.0 * np.sqrt(ref.det_ratio(v, "B"))
            if want is not None and abs(out.value - want) > 1e-6:
                problems.append(f"{tag}: minimum {out.value!r} vs reference {want!r}")
        return failed, problems


WORKLOADS = {w.name: w for w in (CertifyStream, SweepCli, OracleCrosscheck, MinimizeMultimode)}
