import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from cvwitness import (
    CorrelationVerdict,
    CovarianceMatrix,
    TwoModeStandardParams,
    VerdictConsistencyError,
    certify,
    certify_many,
    check_unsteerable_ab,
    check_unsteerable_ba,
    find_one_way_example,
    min_separability_sum_numeric,
    noisy_tmsv,
    random_standard,
    random_two_mode_params,
    sign_rule_holds,
    split_standard,
    stack_verdicts,
    thermal,
    tmsv,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    vacuum,
    validate_bona_fide,
)
from cvwitness import GeneratorSpec, covariance
from cvwitness.covariance import DEFAULT_TOL, local_direct_sum, one_mode_rotation, one_mode_squeeze
from cvwitness.criteria import WITNESS_KEYS, resolve_tolerance
from conftest import noisy_tmsv_phase_diagram, product_cm, rotated, rotated_and_squeezed


def _ba_threshold(r):
    """The Alice-side noise sinh^2 r / cosh 2r below which noisy_tmsv(r, nbar,
    "A") steers B->A."""
    return math.sinh(r) ** 2 / math.cosh(2 * r)


def _squeezed_noisy_tmsv(r, nbar, squeezed, z, n=2):
    """noisy_tmsv(r, nbar, "A") with the mode of party ``squeezed`` ("A" or
    "B") rotated by 0.3 and squeezed by z, and for n = 3 a thermal mode 1.3 I
    joined to Alice's side: an n-mode CM array with the same local invariants."""
    s = one_mode_rotation(0.3) @ one_mode_squeeze(z)
    s = local_direct_sum([s, np.eye(2)] if squeezed == "A" else [np.eye(2), s])
    m = np.eye(2 * n) * 1.3
    m[-4:, -4:] = s @ noisy_tmsv(r, nbar, "A").matrix @ s.T
    return m


def _inject_witnesses(monkeypatch, kernel):
    """Patch the witnesses that both decision routes read with ``kernel``,
    a function of a validated stack: the stack route's
    ``covariance._stack_witnesses``, and the one-CM route's
    ``covariance._float_witnesses``, which then reads ``kernel`` on a stack
    of one as Python scalars."""
    monkeypatch.setattr(covariance, "_stack_witnesses", kernel)
    monkeypatch.setattr(covariance, "_float_witnesses",
                        lambda m: covariance._StackWitnesses(*[a.item() for a in kernel(m[None])]))


class TestCertifyReferenceStates:
    def test_vacuum(self):
        v = certify(vacuum(2))
        assert v.physical and v.ppt
        assert v.gaussian_separable == "yes"
        assert v.separable_necessary_met
        assert not v.steerable_a_to_b and not v.steerable_b_to_a
        assert v.witnesses["min_symplectic_eig"] == pytest.approx(0.5, abs=1e-12)

    def test_tmsv_steerable_both_ways(self):
        v = certify(tmsv(0.5))
        assert v.physical
        assert not v.ppt
        assert v.gaussian_separable == "no"
        assert not v.separable_necessary_met
        assert v.steerable_a_to_b and v.steerable_b_to_a
        w = v.witnesses
        assert w["min_symplectic_eig_pt"] == pytest.approx(0.18394, abs=1e-5)
        assert w["det_ratio_ab"] == pytest.approx(0.104994, abs=1e-6)
        assert w["det_ratio_ab"] == pytest.approx(1 / (4 * np.cosh(1.0) ** 2), abs=1e-12)
        assert w["schur_min_symplectic_eig"] == pytest.approx(
            1 / (2 * np.cosh(1.0)), abs=1e-12
        )
        assert w["sep_sum_plus_min"] == pytest.approx(np.exp(-1), abs=1e-10)

    def test_product_state(self):
        v = certify(product_cm(1.3, 0.8))
        assert v.physical and v.ppt
        assert not v.steerable_a_to_b and not v.steerable_b_to_a
        assert v.gaussian_separable == "yes"

    def test_non_physical_refuses_downstream(self):
        v = certify(CovarianceMatrix(0.25 * np.eye(4)))
        assert not v.physical
        assert v.ppt is None
        assert v.separable_necessary_met is None
        assert v.steerable_a_to_b is None and v.steerable_b_to_a is None
        assert v.gaussian_separable == "undecided"
        assert set(v.witnesses) == {"min_rs_eig"}

    def test_gaussian_separable_follows_ppt(self):
        # with Bob holding one mode, PPT is necessary and sufficient for the
        # Gaussian state's separability (Werner and Wolf 2001)
        v = certify(vacuum(2))
        assert v.ppt and v.gaussian_separable == "yes"
        v2 = certify(tmsv(1.0))
        assert not v2.ppt and v2.gaussian_separable == "no"

    def test_gaussian_separable_is_not_an_argument(self):
        # it is read from ppt, so a verdict cannot hold ppt=True with "no"
        with pytest.raises(TypeError, match="gaussian_separable"):
            CorrelationVerdict(physical=True, ppt=True, separable_necessary_met=True,
                               gaussian_separable="no", steerable_a_to_b=False, steerable_b_to_a=False)

    # certify checks one CM's witnesses as Python floats, certify_many checks
    # the stack's arrays; k = 3 makes member 1 alone inconsistent
    SELF_CHECK_ROUTES = [
        pytest.param(1, certify, id="certify"),
        pytest.param(3, lambda cm: certify_many([cm] * 3), id="certify_many"),
    ]

    @pytest.mark.parametrize("k, route", SELF_CHECK_ROUTES)
    def test_ppt_steering_self_check(self, monkeypatch, k, route):
        # a PPT member is separable, hence unsteerable both ways; a steering
        # flag on one means the witnesses are wrong, and certify raises
        w = covariance._stack_witnesses(np.stack([vacuum(2).matrix] * k))
        schur_nu_min = w.schur_nu_min.copy()
        schur_nu_min[k // 2] = 0.25
        _inject_witnesses(monkeypatch, lambda v: w._replace(schur_nu_min=schur_nu_min))
        with pytest.raises(VerdictConsistencyError, match="PPT"):
            route(vacuum(2))

    @pytest.mark.parametrize("k, route", SELF_CHECK_ROUTES)
    @pytest.mark.parametrize("det_ratio_ab, rs_ab", [(0.1, 0.1), (0.4, -0.1)])
    def test_ab_forms_self_check(self, monkeypatch, det_ratio_ab, rs_ab, k, route):
        # with Bob holding one mode the A->B determinant and matrix forms are
        # equivalent; a physical member on which they disagree outside the
        # dead band means the witnesses are wrong, and certify raises. The
        # kernel carries the determinant ratio as its pivot product
        w = covariance._stack_witnesses(np.stack([vacuum(2).matrix] * k))
        pivots, rs = w.nu_ab.copy(), w.rs_ab.copy()
        pivots[k // 2], rs[k // 2] = math.sqrt(det_ratio_ab), rs_ab
        _inject_witnesses(monkeypatch, lambda v: w._replace(nu_ab=pivots, rs_ab=rs))
        with pytest.raises(VerdictConsistencyError, match=f"A->B .* member {k // 2} of the stack"):
            route(vacuum(2))

    @pytest.mark.parametrize("excess", [1e-8, 1e-7])
    def test_squeezed_bob_ab_self_check(self, excess):
        # vacuum and a slightly noisy squeezed vacuum, uncorrelated: V/V_A is
        # Bob's block, up to 2.4e8 in norm, with det ratio just above 1/4; the
        # smallest eigenvalue of V/V_A + (i/2) J_B must not cancel past the
        # dead band, or the A->B self-check raises on a product state
        for z in np.linspace(8.0, 10.0, 41):
            s = np.exp(2 * z) / 2
            v = certify(CovarianceMatrix(np.diag([0.5, 0.5, s * (1 + excess), (1 + excess) / (4 * s)])))
            assert v.physical and not v.steerable_a_to_b and not v.steerable_b_to_a

    @pytest.mark.parametrize("theta, z", [(3 * np.pi / 40, 9.8), (3 * np.pi / 20, 9.2), (7 * np.pi / 40, 10.0)])
    def test_rotated_squeezed_bob_ab_self_check(self, theta, z):
        # vacuum and a pure Bob mode rotated by theta and squeezed by z, with
        # no noise: rs_ab rounds to -1.0e-9..-1.5e-9 while det V / det V_A
        # stays above 1/4, and the A->B self-check raised under an absolute
        # 1e-9 band; 8 eps max|V| is 7e-8..3e-7 here
        s = one_mode_rotation(theta) @ one_mode_squeeze(z)
        m = 0.5 * np.eye(4)
        m[2:, 2:] = 0.5 * s @ s.T
        for v in (certify(CovarianceMatrix(m)), certify_many([CovarianceMatrix(m)])[0]):
            assert (v.physical, v.ppt, v.steerable_a_to_b, v.steerable_b_to_a) == (True, True, False, False)

    @pytest.mark.xfail(
        strict=True,
        reason="witness error grows as eps kappa(V), past the band's 8 eps max|V|; ROADMAP item 11",
    )
    def test_rotated_squeezed_bob_product_state(self):
        # vacuum and a pure Bob mode rotated by 3 pi/16 and squeezed by 4.5: a
        # product state, hence PPT and unsteerable both ways, with
        # det_ratio_ab exactly 1/4 and min_symplectic_eig_pt exactly 1/2. The
        # kernel reads 0.2499999985 and 0.4999999985: kappa(V) ~ e^(4z) while
        # max|V| ~ e^(2z), so certify calls it non-PPT and A->B steerable
        s = one_mode_rotation(3 * np.pi / 16) @ one_mode_squeeze(4.5)
        m = 0.5 * np.eye(4)
        m[2:, 2:] = s @ (0.5 * np.eye(2)) @ s.T
        v = certify(CovarianceMatrix(m))
        assert (v.physical, v.ppt, v.steerable_a_to_b, v.steerable_b_to_a) == (True, True, False, False)

    @pytest.mark.parametrize("z", [4.5, 6.0, 8.0])
    @pytest.mark.parametrize("theta", [3 * np.pi / 16, 7 * np.pi / 40])
    def test_rotated_squeezed_bob_product_state_marked_ab(self, theta, z):
        # vacuum and a pure Bob mode rotated by theta and squeezed by z sit
        # exactly on the A->B threshold, det V / det V_A = 1/4, so the flag
        # is marked marginal. Only rs_ab marks all six: nu_ab, the A->B
        # pivot product, lies within the band of 1/2 only at (7 pi/40, 4.5)
        s = one_mode_rotation(theta) @ one_mode_squeeze(z)
        m = 0.5 * np.eye(4)
        m[2:, 2:] = 0.5 * s @ s.T
        assert "marginal_ab" in certify(m).witnesses
        assert stack_verdicts([m]).marginal_ab[0]

    def test_requires_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            certify(vacuum(1))

    def test_multimode_non_standard_certified(self, rng):
        # every reported quantity is a local invariant, so a CM moved off
        # standard form gets its standard-form parent's verdict
        for n in (3, 4, 5):
            for seed in range(4):
                parent = random_standard(n, seed=seed)
                ref = certify(parent)
                v = certify(rotated_and_squeezed(parent, rng))
                assert v.physical
                assert (v.ppt, v.steerable_a_to_b, v.steerable_b_to_a) == (
                    ref.ppt,
                    ref.steerable_a_to_b,
                    ref.steerable_b_to_a,
                )
                # min eig(V + iJ/2) is the one witness that is not invariant
                for key, val in ref.witnesses.items():
                    if key != "min_rs_eig":
                        assert v.witnesses[key] == pytest.approx(val, rel=1e-8)


class TestCertifyInvariances:
    def test_two_mode_reduction_invariance(self, rng):
        # verdicts and witnesses are blind to local one-mode rotations
        base = random_two_mode_params(seed=42).to_covariance_matrix()
        ref = certify(base)
        for _ in range(8):
            v = certify(rotated(base, rng.uniform(0, 2 * np.pi, 2)))
            assert (v.ppt, v.steerable_a_to_b, v.steerable_b_to_a) == (
                ref.ppt,
                ref.steerable_a_to_b,
                ref.steerable_b_to_a,
            )
            for key, val in ref.witnesses.items():
                assert v.witnesses[key] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_alice_mode_permutation_invariance(self, n):
        # relabelling Alice's modes is a local symplectic on her side
        flags = ("physical", "ppt", "separable_necessary_met", "gaussian_separable",
                 "steerable_a_to_b", "steerable_b_to_a")
        for seed in range(4):
            cm = random_standard(n, seed=seed)
            want = certify(cm).to_dict()
            for perm in itertools.permutations(range(n - 1)):
                modes = np.array(perm + (n - 1,))
                idx = np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()
                got = certify(CovarianceMatrix(cm.matrix[np.ix_(idx, idx)])).to_dict()
                assert {k: got[k] for k in flags} == {k: want[k] for k in flags}, perm
                assert list(got["witnesses"]) == list(want["witnesses"])
                for key, value in want["witnesses"].items():
                    assert got["witnesses"][key] == pytest.approx(value, rel=1e-10), (perm, key)

    def test_steering_implies_entanglement(self):
        # never a steering flag on a PPT (separable Gaussian) verdict
        corpora = [random_two_mode_params(seed=s).to_covariance_matrix() for s in range(340)]
        corpora += [random_standard(2 + s % 3, seed=s) for s in range(340)]
        corpora += [noisy_tmsv(0.2 * (1 + s % 5), 0.1 * (s % 10), "AB"[s % 2]) for s in range(300)]
        corpora += [tmsv(0.1 * s) for s in range(20)]
        corpora += [vacuum(2), thermal([0.4, 0.1])]
        assert len(corpora) >= 1000
        for cm in corpora:
            v = certify(cm)  # raises VerdictConsistencyError on violation
            if v.steerable_a_to_b or v.steerable_b_to_a:
                assert v.gaussian_separable == "no"
                assert not v.ppt

    def test_ppt_implies_separability_sums_above_one(self):
        checked = 0
        for seed in range(60):
            cm = random_two_mode_params(seed=seed).to_covariance_matrix()
            v = certify(cm)
            if not v.ppt:
                continue
            checked += 1
            sf = split_standard(cm)
            for sign in ("plus", "minus"):
                res = min_separability_sum_numeric(sf, sign)
                assert res.value >= 1.0 - 1e-6
        assert checked >= 10

    def test_ba_direction_equivalence_two_modes(self):
        for seed in range(60):
            cm = random_two_mode_params(seed=seed).to_covariance_matrix()
            v = certify(cm)
            det_ratio_ba = v.witnesses["det_ratio_ba"]
            if abs(det_ratio_ba - 0.25) < 1e-9:
                continue
            assert v.steerable_b_to_a == (det_ratio_ba < 0.25)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("z", [2.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7, -1e-6, -1e-5])
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.5])
    def test_ba_threshold_under_alice_squeeze(self, r, delta, z, n):
        # noisy_tmsv(r, nbar, "A") steers B->A iff nbar < sinh^2 r / cosh 2r,
        # and nu_min(V/V_B) sits about delta from 1/2, far outside the band.
        # Alice's mode is rotated and squeezed, and for n = 3 a thermal mode
        # 1.3 I joins her side: no local invariant moves. B->A used to be
        # decided by the least eigenvalue of V/V_B + (i/2) J_A, whose margin
        # the squeeze shrinks into the band (marginal, called unsteerable)
        m = _squeezed_noisy_tmsv(r, _ba_threshold(r) - delta, "A", z, n)
        v, sv = certify(m), stack_verdicts([m])
        assert v.steerable_b_to_a == sv.steerable_ba[0] == (delta > 0)
        assert "marginal_ba" not in v.witnesses and not sv.marginal_ba[0]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("z", [2.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7, -1e-6, -1e-5])
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.5])
    def test_ppt_threshold_under_bob_squeeze(self, r, delta, z, n):
        # noisy_tmsv(r, nbar, "A") is PPT iff nbar >= 1, whatever r; Bob's
        # mode is rotated and squeezed, which moves no local invariant
        m = _squeezed_noisy_tmsv(r, 1 - delta, "B", z, n)
        v, sv = certify(m), stack_verdicts([m])
        assert v.ppt == sv.ppt[0] == (delta < 0)
        assert "marginal_ppt" not in v.witnesses and not sv.marginal_ppt[0]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("z", [2.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7, -1e-6, -1e-5])
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.5])
    def test_ab_threshold_under_bob_squeeze(self, r, delta, z, n):
        # noisy_tmsv(r, nbar, "A") steers A->B iff nbar < 1/2, whatever r.
        # No assertion on marginal_ab: rs_ab, the second A->B route, sets it
        # on 24 of these 60, its margin shrunk by Bob's squeeze
        m = _squeezed_noisy_tmsv(r, 0.5 - delta, "B", z, n)
        v, sv = certify(m), stack_verdicts([m])
        assert v.steerable_a_to_b == sv.steerable_ab[0] == (delta > 0)

    @pytest.mark.xfail(
        strict=True,
        reason="nu_min(V/V_B) errs by about eps kappa(V), past the band's 8 eps max|V|; ROADMAP item 11",
    )
    @pytest.mark.parametrize(
        "r, delta, z", [(1.5, 1e-5, 6.5), (1.5, 1e-5, 7.0), (1.5, 1e-6, 6.0), (0.7, -1e-6, 6.75)]
    )
    def test_ba_threshold_under_heavy_alice_squeeze(self, r, delta, z):
        # test_ba_threshold_under_alice_squeeze's family at kappa(V) = 3e11..2e13:
        # schur_min_symplectic_eig - 1/2 reads +6.9e-6, +5.1e-5, +8.5e-7 and
        # -9.4e-7, the wrong side of 1/2, and nothing marks the flag marginal
        m = _squeezed_noisy_tmsv(r, _ba_threshold(r) - delta, "A", z)
        v, sv = certify(m), stack_verdicts([m])
        assert v.steerable_b_to_a == (delta > 0) or "marginal_ba" in v.witnesses
        assert sv.steerable_ba[0] == (delta > 0) or sv.marginal_ba[0]

    def test_flags_invariant_under_local_rotation_and_squeeze(self):
        # noisy TMSV on a grid up to r = 5, each under 4 random local
        # rotation-and-squeeze symplectics with |z| <= 2
        rng = np.random.default_rng(20240811)
        base = [
            noisy_tmsv(r, nbar, side)
            for r in np.round(0.1 * np.arange(51), 1)
            for nbar in (0.0, 0.3, 2.0)
            for side in ("A", "B")
        ]
        moved = [rotated_and_squeezed(cm, rng, max_z=2.0) for cm in base for _ in range(4)]
        want, got = stack_verdicts(base), stack_verdicts(moved)
        assert want.physical.all()
        for name in ("physical", "ppt", "steerable_ab", "steerable_ba"):
            np.testing.assert_array_equal(getattr(got, name), np.repeat(getattr(want, name), 4), name)

    def test_marginal_dead_band(self):
        # a state sitting exactly on the A->B threshold gets a marginal
        # marker instead of a flag flip
        r = 0.5
        cm = noisy_tmsv(r, 0.5, "A")
        v = certify(cm, tol=1e-9)
        assert abs(v.witnesses["det_ratio_ab"] - 0.25) < 1e-12
        assert "marginal_ab" in v.witnesses
        assert not v.steerable_a_to_b


class TestOneWayExample:
    def test_search_returns_asymmetric_state(self):
        cm = find_one_way_example()
        assert validate_bona_fide(cm).bona_fide
        v = certify(cm)
        assert v.steerable_a_to_b != v.steerable_b_to_a

    def test_analytic_window(self):
        # with Alice-side noise nbar, A->B steering survives up to
        # nbar = 1/2 while B->A dies at 1/2 - 1/(2 cosh 2r)
        r = 0.7
        lower = 0.5 - 1 / (2 * np.cosh(2 * r))
        inside = certify(noisy_tmsv(r, (lower + 0.5) / 2, "A"))
        assert inside.steerable_a_to_b and not inside.steerable_b_to_a
        below = certify(noisy_tmsv(r, lower - 0.05, "A"))
        assert below.steerable_a_to_b and below.steerable_b_to_a
        above = certify(noisy_tmsv(r, 0.55, "A"))
        assert not above.steerable_a_to_b and not above.steerable_b_to_a

    def test_candidate_with_too_much_noise_is_two_way_unsteerable(self):
        # nbar = 0.6 exceeds the asymmetry window at r = 0.7: entangled but
        # unsteerable in both directions, hence never a one-way example
        v = certify(noisy_tmsv(0.7, 0.6, "A"))
        assert not v.ppt
        assert not v.steerable_a_to_b and not v.steerable_b_to_a

    def test_symmetric_tmsv_never_qualifies(self):
        for r in (0.1, 0.5, 1.0):
            v = certify(tmsv(r))
            assert v.steerable_a_to_b == v.steerable_b_to_a

    def test_closed_form_window(self):
        # the middle of the r = 0.7 window [sinh^2 r / cosh 2r, 1/2) of
        # Alice-side noise: A->B steerable, B->A not
        nbar = 0.5 - 0.25 / math.cosh(1.4)
        got = find_one_way_example()
        assert np.array_equal(got.matrix, noisy_tmsv(0.7, nbar, "A").matrix)
        window = noisy_tmsv_phase_diagram(0.7, "A", DEFAULT_TOL)
        upper, margin_ab = window["steerable_a_to_b"]
        lower, margin_ba = window["steerable_b_to_a"]
        assert lower + margin_ba < nbar < upper - margin_ab
        v = certify(got)
        assert v.steerable_a_to_b is True and v.steerable_b_to_a is False
        assert not [key for key in v.witnesses if key.startswith("marginal_")]


class TestCertifyMany:
    """The batched kernel gives every member exactly the verdict it gets
    alone (``certify`` runs the same rules on its stack of one's floats)."""

    def test_golden_groups_match_single(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden.json").read_text()
        )
        groups = defaultdict(list)
        for entry in golden["entries"]:
            cm = CovarianceMatrix.from_dict(entry["cm"])
            groups[cm.n_modes].append(cm)
        assert len(groups) > 1
        for cms in groups.values():
            many = certify_many(cms, tol=golden["tol"])
            for cm, verdict in zip(cms, many, strict=True):
                assert verdict.to_dict() == certify(cm, tol=golden["tol"]).to_dict()
            # the array path gives the list path's verdicts
            from_array = certify_many(np.stack([cm.matrix for cm in cms]), tol=golden["tol"])
            assert [v.to_dict() for v in from_array] == [v.to_dict() for v in many]

    def test_mixed_stack_failures_stay_local(self):
        # non-physical, factorization failure, and heavy squeezing in one stack
        cms = [CovarianceMatrix(0.25 * np.eye(4)), tmsv(11.0), tmsv(10.0)]
        many = certify_many(cms)
        assert [v.physical for v in many] == [False, False, True]
        for cm, verdict in zip(cms, many):
            assert verdict.to_dict() == certify(cm).to_dict()

    @staticmethod
    def _branch_members(n):
        """A factor failure, an RS refusal, the vacuum's three markers, a PPT
        thermal state and both one-way noisy TMSVs, then tmsv(9), a two-mode
        CM off standard form and four with huge entries, each under n - 2
        vacuum Alice modes, then random_standard(n) members."""
        r = 0.7
        one_way = (1.0 - 1 / (2 * np.cosh(2 * r))) / 2  # inside the analytic window
        local = local_direct_sum([one_mode_rotation(0.7) @ one_mode_squeeze(0.3), np.eye(2)])
        # Bob's block has its larger eigenvalue past the double range
        huge_bob = np.diag([0.5, 0.5, 0.0, 0.0])
        huge_bob[2:, 2:] = [[1.7e308, 0.999 * 1.7e308], [0.999 * 1.7e308, 1.7e308]]
        pairs = [tmsv(11.0), CovarianceMatrix(0.2 * np.eye(4)), vacuum(2), thermal([0.3, 1.2]),
                 noisy_tmsv(r, one_way, "A"), noisy_tmsv(r, one_way, "B"), tmsv(9.0),
                 CovarianceMatrix(local @ tmsv(0.5).matrix @ local.T), CovarianceMatrix(np.diag([1, 1, 1e160, 1e160])),
                 CovarianceMatrix(np.diag([1e308, 1e308, 1, 1])), CovarianceMatrix(np.diag([1e308, 1, 1, 1])),
                 CovarianceMatrix(huge_bob)]
        extra = 2 * (n - 2)
        members = []
        for cm in pairs:
            m = 0.5 * np.eye(2 * n)
            m[extra:, extra:] = cm.matrix
            members.append(CovarianceMatrix(m))
        return members + [random_standard(n, seed=s) for s in range(3)]

    @staticmethod
    def _typed(values):
        """Each value's Python type and, for a float, its exact bits."""
        return [(type(x).__name__, float.hex(x) if type(x) is float else x) for x in values]

    # numpy scalars warn on overflow where Python floats do not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_cm_route_matches_stack_route(self, n):
        # certify decides one CM on Python floats, certify_many a stack on
        # arrays; both must give the same bits, key order and Python types
        members = self._branch_members(n)
        single = [certify(cm) for cm in members]
        many = certify_many(members)
        factor_fail, rs_refused, markers, ppt, ab_only, ba_only = single[:6]
        assert not covariance._stack_witnesses(members[0].matrix[None]).factored[0]
        assert not factor_fail.physical and list(factor_fail.witnesses) == ["min_rs_eig"]
        assert not rs_refused.physical and rs_refused.witnesses["min_rs_eig"] < 0
        assert {"marginal_ppt", "marginal_ab", "marginal_ba"} <= set(markers.witnesses)
        assert ppt.ppt and ppt.gaussian_separable == "yes"
        assert (ab_only.steerable_a_to_b, ab_only.steerable_b_to_a) == (True, False)
        assert (ba_only.steerable_a_to_b, ba_only.steerable_b_to_a) == (False, True)
        assert single[6].physical and single[8].witnesses["det_ratio_ab"] == math.inf

        def exact(v):
            d = v.to_dict()
            d["witnesses"] = [(key, float.hex(x)) for key, x in d["witnesses"].items()]
            return d

        assert [exact(v) for v in single] == [exact(v) for v in many]
        for v in single + many:
            assert all(type(x) is float for x in v.witnesses.values())
            flags = (v.physical, v.ppt, v.separable_necessary_met, v.steerable_a_to_b, v.steerable_b_to_a)
            assert all(f is None or type(f) is bool for f in flags)

        # every witness of the kernel, and the one-CM checks, against the
        # stack route's arrays and rules, member by member
        kernel, (values, *_, rs_ok, ab, ba) = covariance._decide_stack(
            np.stack([cm.matrix for cm in members]), DEFAULT_TOL)
        for i, cm in enumerate(members):
            row = [a[i].item() for a in kernel]
            assert self._typed(covariance._float_witnesses(cm.matrix)) == self._typed(row)
            report = validate_bona_fide(cm)
            assert self._typed([report.positive_definite, report.rs_ur_satisfied, report.min_rs_eigenvalue]) \
                == self._typed([row[0], rs_ok[i].item(), row[1]])
            if not kernel.factored[i]:
                for check in (check_unsteerable_ab, check_unsteerable_ba):
                    with pytest.raises(np.linalg.LinAlgError):
                        check(cm)
                continue
            stack_ab = [ab[0][i], ab[1][i], values[6][i], kernel.rs_ab[i]]
            stack_ba = [ba[0][i], ba[1][i], values[7][i], values[8][i] - 0.5]
            assert self._typed(check_unsteerable_ab(cm)) == self._typed(x.item() for x in stack_ab)
            assert self._typed(check_unsteerable_ba(cm)) == self._typed(x.item() for x in stack_ba)

    @pytest.mark.filterwarnings("error")
    def test_one_mode_route_matches_stack_route(self):
        # with one mode the Bob-first factor's trailing block is empty, and
        # the product of its no pivots is 1.0 on both routes
        m = vacuum(1).matrix
        w = covariance._float_witnesses(m)
        assert type(w.nu_ba) is float and w.nu_ba == 1.0
        assert self._typed(w) == self._typed(a.item() for a in covariance._stack_witnesses(m[None]))
        report = validate_bona_fide(vacuum(1))
        assert self._typed([report.positive_definite, report.min_rs_eigenvalue]) == self._typed(w[:2])

    def test_array_stack_input(self):
        cms = [random_standard(3, seed=s) for s in range(5)]
        stack = np.stack([cm.matrix for cm in cms])
        from_array = [v.to_dict() for v in certify_many(stack, tol=1e-9)]
        assert from_array == [v.to_dict() for v in certify_many(cms, tol=1e-9)]

    def test_array_is_not_wrapped_member_by_member(self, monkeypatch):
        stack = np.stack([random_standard(3, seed=s).matrix for s in range(5)])
        expected = [v.to_dict() for v in certify_many(stack)]

        def refuse(*args, **kwargs):
            raise AssertionError("CovarianceMatrix built on the array path")

        monkeypatch.setattr(CovarianceMatrix, "__init__", refuse)
        assert [v.to_dict() for v in certify_many(stack)] == expected

    def test_single_matrix_array_names_stack_shape(self):
        # used to iterate the rows: "must be square, got shape (4,)"
        with pytest.raises(ValueError, match=r"\(k, 2n, 2n\), got shape \(4, 4\)"):
            certify_many(tmsv(0.5).matrix)

    def test_empty_array_stack(self):
        assert certify_many(np.zeros((0, 4, 4))) == []

    def test_non_finite_array_member_named(self):
        stack = np.stack([tmsv(0.5).matrix] * 4)
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="member 2 of the stack has non-finite"):
            certify_many(stack)

    def test_asymmetric_array_member_named(self):
        stack = np.stack([tmsv(0.5).matrix] * 4)
        stack[3, 0, 2] += 1e-6
        with pytest.raises(ValueError, match="member 3 of the stack is not symmetric"):
            certify_many(stack)

    def test_complex_array_member_named(self):
        # a complex stack used to be cast to its real part, with a ComplexWarning
        stack = np.stack([tmsv(0.5).matrix] * 4).astype(complex)
        stack[1, 0, 2] += 0.3j
        stack[1, 2, 0] -= 0.3j
        with pytest.raises(ValueError, match="member 1 of the stack has complex entries"):
            certify_many(stack)
        assert certify_many(stack.real) == certify_many(np.stack([tmsv(0.5).matrix] * 4))

    def test_one_mode_array_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            certify_many(np.stack([0.5 * np.eye(2)] * 2))

    def test_gaussian_separable_per_member(self):
        cms = [vacuum(2), tmsv(0.5)]
        assert [v.gaussian_separable for v in certify_many(cms)] == ["yes", "no"]

    def test_empty_stack(self):
        assert certify_many([]) == []

    def test_mixed_mode_counts_rejected(self):
        with pytest.raises(ValueError, match="same number of modes"):
            certify_many([vacuum(2), vacuum(3)])
        with pytest.raises(ValueError, match="same number of modes"):
            certify_many([0.5 * np.eye(4), 0.5 * np.eye(6)])

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            certify_many([vacuum(2)], tol=float("nan"))


class TestStackVerdicts:
    """The flag and witness arrays are certify's verdict, bit for bit,
    wherever the verdict has a value."""

    def test_golden_corpus_matches_certify(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden.json").read_text()
        )
        tol = golden["tol"]
        groups = defaultdict(list)
        for entry in golden["entries"]:
            cm = CovarianceMatrix.from_dict(entry["cm"])
            groups[cm.n_modes].append(cm)
        # every golden entry is physical; a failed factor and an RS refusal
        # cover the masked branch
        groups[2] += [tmsv(11.0), CovarianceMatrix(0.2 * np.eye(4))]
        seen = set()
        for cms in groups.values():
            sv = stack_verdicts(np.stack([cm.matrix for cm in cms]), tol=tol)
            for i, cm in enumerate(cms):
                v = certify(cm, tol=tol)
                seen.add(v.physical)
                assert sv.physical[i] == v.physical
                if not v.physical:
                    assert sv.witnesses[i, 0] == v.witnesses["min_rs_eig"]
                    continue
                assert [sv.ppt[i], sv.separable_ok[i], sv.steerable_ab[i], sv.steerable_ba[i]] == [
                    v.ppt, v.separable_necessary_met, v.steerable_a_to_b, v.steerable_b_to_a
                ]
                assert [sv.marginal_ppt[i], sv.marginal_ab[i], sv.marginal_ba[i]] == [
                    key in v.witnesses for key in ("marginal_ppt", "marginal_ab", "marginal_ba")
                ]
                assert sv.witnesses[i].tolist() == [v.witnesses[key] for key in WITNESS_KEYS]
        assert seen == {True, False}

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 4, 4))])
    def test_empty_stack(self, empty):
        sv = stack_verdicts(empty)
        assert sv.physical.shape == (0,) and sv.witnesses.shape == (0, len(WITNESS_KEYS))

    def test_list_member_read_as_a_stack_member(self):
        # a list is stacked and read by validate_stack; a raw member used to
        # go through CovarianceMatrix, which did not name it
        members = [tmsv(0.5).matrix.copy() for _ in range(3)]
        members[2][0, 2] += 1e-6
        with pytest.raises(ValueError, match="member 2 of the stack is not symmetric"):
            stack_verdicts(members)

    def test_list_and_array_are_one_route(self):
        members = [tmsv(0.5), vacuum(2).matrix, noisy_tmsv(0.7, 0.4, "A"), 0.2 * np.eye(4), tmsv(11.0)]
        matrices = np.array([m.matrix if isinstance(m, CovarianceMatrix) else m for m in members])
        from_list, from_array = stack_verdicts(members), stack_verdicts(matrices)
        assert from_list.flags.tobytes() == from_array.flags.tobytes()
        assert from_list.witnesses.tobytes() == from_array.witnesses.tobytes()

    # non-physical CMs that factor, with Bob's mode below the vacuum:
    # unmasked, they read A->B steerable and B->A not, as the one-way
    # example does. A failed factor's zeroed witnesses read steerable both
    # ways, so they no longer tell a dropped mask from a kept one
    NON_PHYSICAL_ONE_WAY = [np.diag([0.5, 0.5, 0.3, 0.3]), np.diag([0.5, 0.5, 0.7, 0.7, 0.3, 0.3])]

    def test_failed_factor_masked_by_physical(self):
        for m in self.NON_PHYSICAL_ONE_WAY:
            sv = stack_verdicts([m])
            assert not sv.physical[0]
            assert sv.steerable_ab[0] and not sv.steerable_ba[0]
            (v,) = certify_many([m])
            assert v == certify(m)
            assert [v.ppt, v.steerable_a_to_b, v.steerable_b_to_a] == [None] * 3


class TestHugeEntries:
    """A physical CM with an entry near the top of the double range gets a
    verdict, under the suite's np.seterr(all="raise"). Its symmetrization
    used to turn 1e308 into inf, and certify then raised LinAlgError
    "Eigenvalues did not converge"; the kernel's one-mode closed form
    overflowed at the same scale.

    ``PRODUCTS`` are vacuum-like and thermal-like modes side by side:
    physical, PPT and unsteerable both ways. The kernel carries each Schur
    complement as its pivot product, which stays finite; only the reported
    determinant ratio, its square, overflows to inf. The first used to
    report ``steer_sum_ab_min`` as inf, and the second raised
    ``VerdictConsistencyError`` from a NaN eigenvalue of V/V_B. The first's
    band is 1.8e145, so its markers are set (ROADMAP item 11)."""

    HUGE = np.diag([1e308, 1.0, 1.0, 1.0])

    def test_certify(self):
        v = certify(CovarianceMatrix(self.HUGE))
        assert v.physical and v.ppt and not (v.steerable_a_to_b or v.steerable_b_to_a)
        assert v.witnesses["det_ratio_ba"] == 1e308
        assert all(math.isfinite(x) for x in v.witnesses.values())

    @pytest.mark.parametrize("as_cm", [True, False])
    def test_validate_bona_fide(self, as_cm):
        report = validate_bona_fide(CovarianceMatrix(self.HUGE) if as_cm else self.HUGE)
        assert report.bona_fide and report.min_rs_eigenvalue == 0.5

    def test_stack_verdicts(self):
        sv = stack_verdicts([CovarianceMatrix(self.HUGE), self.HUGE])
        assert sv.physical.all() and np.isfinite(sv.witnesses).all()
        witnesses = certify(self.HUGE).witnesses
        assert sv.witnesses[0].tolist() == [witnesses[key] for key in WITNESS_KEYS]

    # (CM, finite witness, its exact value, the determinant ratio that is inf)
    PRODUCTS = [
        pytest.param(np.diag([1.0, 1.0, 1e160, 1e160]), "steer_sum_ab_min", 2e160, "det_ratio_ab", id="bob-1e160"),
        pytest.param(np.diag([1e308, 1e308, 1.0, 1.0]), "schur_min_symplectic_eig", 1e308, "det_ratio_ba",
                     id="alice-1e308"),
        # the three-mode pivot product of V/V_B, 1e400, used to overflow in the kernel
        pytest.param(np.diag([1e200] * 4 + [1.0, 1.0]), "schur_min_symplectic_eig", 1e200, "det_ratio_ba",
                     id="alice-2x1e200"),
    ]

    @pytest.mark.parametrize("m, key, value, inf_key", PRODUCTS)
    def test_pivot_products_overflow_only_when_squared(self, m, key, value, inf_key):
        v = certify(m)
        assert v.physical and v.ppt and v.separable_necessary_met
        assert not (v.steerable_a_to_b or v.steerable_b_to_a)
        assert v.witnesses[key] == value and v.witnesses[inf_key] == math.inf
        sv = stack_verdicts([CovarianceMatrix(m), m])
        assert sv.flags[:, :5].tolist() == [[True, True, True, False, False]] * 2
        assert sv.witnesses.tolist() == [[v.witnesses[k] for k in WITNESS_KEYS]] * 2
        assert validate_bona_fide(m).bona_fide and validate_bona_fide(CovarianceMatrix(m)).bona_fide
        ab, ba = check_unsteerable_ab(m), check_unsteerable_ba(m)
        assert ab.matrix_ok and ab.det_ok and ba.matrix_ok and ba.det_ok
        assert [ab.det_ratio, ba.det_ratio] == [v.witnesses["det_ratio_ab"], v.witnesses["det_ratio_ba"]]


class TestExactBoundaries:
    """States whose witnesses sit exactly on a threshold, decided with
    tol = 0, which leaves the band at 8 eps max|V|; ``TestRuleBoundaries``
    pins each rule at the band's edge."""

    def test_vacuum_is_physical(self):
        # min_rs_eig is exactly 0.0 on every route to physicality
        v = certify(vacuum(2), tol=0.0)
        assert v.physical and v.witnesses["min_rs_eig"] == 0.0
        sv = stack_verdicts([vacuum(2)], tol=0.0)
        assert sv.physical.tolist() == [True] and sv.witnesses[0, 0] == 0.0
        report = validate_bona_fide(vacuum(2), tol=0.0)
        assert report.bona_fide and report.min_rs_eigenvalue == 0.0

    def test_vacuum_with_squeezed_bob_block(self):
        # Alice in vacuum, Bob's block diag(1, 1/4): the partial transpose's
        # smallest symplectic eigenvalue is exactly 1/2, det V / det V_A
        # exactly 1/4 and V/V_A + (i/2) J_B exactly singular
        cm = CovarianceMatrix(np.diag([0.5, 0.5, 1.0, 0.25]))
        v = certify(cm, tol=0.0)
        assert v.ppt is True and v.steerable_a_to_b is False
        check = check_unsteerable_ab(cm, tol=0.0)
        assert check.matrix_ok and check.det_ok
        assert check.det_ratio == 0.25 and check.min_rs_eigenvalue == 0.0


def _root_edge(t: float) -> float:
    """The smallest double x with x * x >= t, for t > 0; at every edge
    ``TestRuleBoundaries`` takes, x * x rounds to t itself, so a test made
    strict fails there."""
    x = math.sqrt(t)
    while x * x >= t:
        x = math.nextafter(x, -math.inf)
    while x * x < t:
        x = math.nextafter(x, math.inf)
    assert x * x == t, t
    return x


class TestRuleBoundaries:
    """Every test and marker of ``covariance._verdict_rules`` at its edge.

    The witnesses are patched in covariance (``_inject_witnesses``), where
    both the one-CM and the stack routes read them, to report one witness
    at an edge, ``centre - band`` or ``centre + band``, and one ulp below
    and above it, as a stack of three members that ``_MARK`` tells apart. Each
    route must decide as the rule says: ``certify``, ``stack_verdicts``,
    ``validate_bona_fide`` and ``check_unsteerable_*``. The band is the
    rules' own, max(tol, ``covariance._BAND_PER_NORM`` max|V|), once set by
    tol and once by the CM's entries; with powers of two every edge is
    exact. The kernel carries each Schur complement as its pivot product:
    the A->B determinant test and marker compare ``nu_ab`` with 1/2, and
    the B->A determinant test squares ``nu_ba``, so its edge is the
    smallest ``nu_ba`` whose square reaches 4^-N - band. The B->A matrix
    test and marker compare ``schur_nu_min`` with 1/2.
    """

    _MARK = 2.0**-40  # member i carries i * _MARK in its (0, 2) entry
    # far from every threshold: physical, PPT, separable, unsteerable
    _BASE = dict(factored=True, min_rs_eig=1.0, nu_min=1.5, nu_min_pt=1.5, nu_ab=1.5,
                 rs_ab=1.0, nu_ba=1.5, schur_nu_min=1.5)
    # (tol, the CM's entries): the band is tol, 8 eps * 0.5 and 8 eps * 2^20
    BANDS = [(2.0**-30, 0.5), (0.0, 0.5), (2.0**-30, 2.0**20)]
    T, F = True, False
    # (witness, edge as a function of (band, n_alice), other injected
    # witnesses, expected (at, one ulp below, one ulp above) per output)
    CASES = {
        "physical": ("min_rs_eig", lambda b, na: -b, {}, {"physical": (T, F, T), "rs_ur": (T, F, T)}),
        "ppt": ("nu_min_pt", lambda b, na: 0.5 - b, {}, {"ppt": (T, F, T), "marginal_ppt": (T, F, T)}),
        "marginal_ppt": ("nu_min_pt", lambda b, na: 0.5 + b, {}, {"ppt": (T, T, T), "marginal_ppt": (T, T, F)}),
        "sep_plus": ("nu_min_pt", lambda b, na: (1.0 - b) / 2, {}, {"separable": (T, F, T), "ppt": (T, T, T)}),
        "sep_minus": ("nu_min", lambda b, na: (1.0 - b) / 2, {}, {"separable": (T, F, T)}),
        # non-PPT, so that steering is no self-check failure; rs_ab < 0
        # agrees with the determinant test wherever the marker is off
        "steerable_ab": ("nu_ab", lambda b, na: 0.5 - b, {"nu_min_pt": 0.1, "rs_ab": -1.0},
                         {"steerable_ab": (F, T, F), "marginal_ab": (T, F, T), "ab_det": (T, F, T)}),
        "marginal_ab_det": ("nu_ab", lambda b, na: 0.5 + b, {"nu_min_pt": 0.1},
                            {"steerable_ab": (F, F, F), "marginal_ab": (T, T, F), "ab_det": (T, T, T)}),
        "rs_ab_low": ("rs_ab", lambda b, na: -b, {"nu_min_pt": 0.1, "nu_ab": 0.25},
                      {"steerable_ab": (T, T, T), "marginal_ab": (T, F, T), "ab_matrix": (T, F, T)}),
        "rs_ab_high": ("rs_ab", lambda b, na: b, {}, {"marginal_ab": (T, T, F), "ab_matrix": (T, T, T)}),
        "steerable_ba": ("schur_nu_min", lambda b, na: 0.5 - b, {"nu_min_pt": 0.1},
                         {"steerable_ba": (F, T, F), "marginal_ba": (T, F, T), "ba_matrix": (T, F, T)}),
        "marginal_ba": ("schur_nu_min", lambda b, na: 0.5 + b, {},
                        {"steerable_ba": (F, F, F), "marginal_ba": (T, T, F), "ba_matrix": (T, T, T)}),
        "ba_det": ("nu_ba", lambda b, na: _root_edge(0.25**na - b), {},
                   {"ba_det": (T, F, T), "ba_matrix": (T, T, T)}),
    }
    # how each output is read from a verdict (certify), from row i of a
    # StackVerdicts, or from the one-CM checks
    VERDICT = {"physical": "physical", "ppt": "ppt", "separable": "separable_necessary_met",
               "steerable_ab": "steerable_a_to_b", "steerable_ba": "steerable_b_to_a"}
    STACK = {"physical": "physical", "ppt": "ppt", "separable": "separable_ok", "steerable_ab": "steerable_ab",
             "steerable_ba": "steerable_ba", "marginal_ppt": "marginal_ppt", "marginal_ab": "marginal_ab",
             "marginal_ba": "marginal_ba"}
    CHECKS = {"rs_ur": lambda cm, tol: validate_bona_fide(cm, tol=tol).rs_ur_satisfied,
              "ab_matrix": lambda cm, tol: check_unsteerable_ab(cm, tol=tol).matrix_ok,
              "ab_det": lambda cm, tol: check_unsteerable_ab(cm, tol=tol).det_ok,
              "ba_matrix": lambda cm, tol: check_unsteerable_ba(cm, tol=tol).matrix_ok,
              "ba_det": lambda cm, tol: check_unsteerable_ba(cm, tol=tol).det_ok}

    def _members(self, n, scale):
        members = []
        for i in range(3):
            m = scale * np.eye(2 * n)
            m[0, 2] = m[2, 0] = i * self._MARK
            members.append(CovarianceMatrix(m))
        return members

    def _patch(self, monkeypatch, witnesses):
        def kernel(v):
            i = np.rint(v[:, 0, 2] / self._MARK).astype(int)
            return covariance._StackWitnesses(**{key: np.asarray(x)[i] for key, x in witnesses.items()})

        _inject_witnesses(monkeypatch, kernel)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tol, scale", BANDS)
    @pytest.mark.parametrize("case", list(CASES))
    def test_edge(self, monkeypatch, case, tol, scale, n):
        field, edge, others, want = self.CASES[case]
        band = max(tol, covariance._BAND_PER_NORM * scale)
        x = edge(band, n - 1)
        points = [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        witnesses = {key: [value] * 3 for key, value in {**self._BASE, **others}.items()}
        witnesses[field] = points
        self._patch(monkeypatch, witnesses)
        members = self._members(n, scale)
        sv = stack_verdicts(members, tol=tol)
        for i, cm in enumerate(members):
            v = certify(cm, tol=tol)
            for output, expected in want.items():
                if output in self.CHECKS:
                    got = [self.CHECKS[output](cm, tol)]
                else:
                    got = [getattr(sv, self.STACK[output])[i]]
                    got.append(getattr(v, self.VERDICT[output]) if output in self.VERDICT else output in v.witnesses)
                assert got == [expected[i]] * len(got), (output, i)

    @pytest.mark.parametrize("tol, scale", BANDS)
    def test_ab_self_check_edge(self, monkeypatch, tol, scale):
        # the determinant test passes far from 1/4; the matrix test fails
        # one ulp below -band, where the marker is off too, and only there
        band = max(tol, covariance._BAND_PER_NORM * scale)
        witnesses = {key: [value] * 3 for key, value in self._BASE.items()}
        witnesses["rs_ab"] = [-band, math.nextafter(-band, -math.inf), math.nextafter(-band, math.inf)]
        self._patch(monkeypatch, witnesses)
        members = self._members(2, scale)
        with pytest.raises(VerdictConsistencyError, match="member 1 of the stack"):
            stack_verdicts(members, tol=tol)
        with pytest.raises(VerdictConsistencyError, match="A->B"):
            certify(members[1], tol=tol)
        for cm in members[0::2]:
            v = certify(cm, tol=tol)
            assert "marginal_ab" in v.witnesses and v.steerable_a_to_b is False


class TestNoisyTmsvPhaseDiagram:
    """Noise n on side X of tmsv(r) against the closed-form phase diagram
    (``conftest.noisy_tmsv_phase_diagram``): every flag of every member,
    away from a tol-scaled margin around each boundary."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-5])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_flags_match_closed_forms(self, side, tol):
        rng = np.random.default_rng(20260511)
        rs = np.concatenate([[0.1, 0.3, 0.7, 1.0, 2.0, 3.0], rng.uniform(0.05, 3.0, 34)])
        checked = 0
        for r in rs:
            nbars = np.sort(rng.uniform(0.0, 2.0, 200))
            stack = GeneratorSpec("noisy_tmsv", params={"r": float(r), "side": side}).build_stack("nbar", nbars)
            sv = stack_verdicts(stack, tol=tol)
            assert sv.physical.all()
            for flag, (n_c, margin) in noisy_tmsv_phase_diagram(r, side, tol).items():
                got = {"ppt": sv.ppt, "steerable_a_to_b": sv.steerable_ab, "steerable_b_to_a": sv.steerable_ba}[flag]
                clear = np.abs(nbars - n_c) > margin
                want = nbars >= n_c if flag == "ppt" else nbars < n_c
                mismatched = nbars[clear & (got != want)]
                assert not mismatched.size, (flag, float(r), mismatched[:3])
                checked += int(clear.sum())
        assert checked > 0.99 * 3 * len(rs) * 200


class TestSignRule:
    def test_tmsv(self):
        params = TwoModeStandardParams(
            np.cosh(1.0) / 2, np.cosh(1.0) / 2, np.sinh(1.0) / 2, -np.sinh(1.0) / 2
        )
        assert sign_rule_holds(params)
        km = two_mode_symplectic_pair(params)[0]
        kmpt = two_mode_symplectic_pair_pt(params)[0]
        assert kmpt - km == pytest.approx(np.exp(-1) / 2 - 0.5, abs=1e-12)

    def test_positive_d_case(self):
        params = TwoModeStandardParams(1.0, 0.8, 0.3, 0.2)
        km = two_mode_symplectic_pair(params)[0]
        kmpt = two_mode_symplectic_pair_pt(params)[0]
        assert kmpt > km
        assert sign_rule_holds(params)

    def test_degenerate_d_rejected(self):
        with pytest.raises(ValueError, match="sign rule"):
            sign_rule_holds(TwoModeStandardParams(1.0, 0.8, 0.3, 0.0))

    def test_random_corpus(self):
        for seed in range(100):
            params = random_two_mode_params(seed=seed, min_abs_d=1e-6)
            assert sign_rule_holds(params)


class TestHeavySqueezing:
    """Pure TMSV is physical for every r; certify must never raise on it."""

    R_VALUES = [round(0.05 * k, 2) for k in range(241)] + [7.9717, 8.195, 8.32]

    def test_never_raises(self):
        for r in self.R_VALUES:
            certify(tmsv(r))

    def test_r10_certified(self):
        v = certify(tmsv(10.0))
        assert v.physical
        assert v.ppt is False
        assert v.steerable_a_to_b and v.steerable_b_to_a

    @pytest.mark.parametrize("r", [11.0, 12.0])
    def test_beyond_factorization_refused(self, r):
        v = certify(tmsv(r))
        assert not v.physical
        assert set(v.witnesses) == {"min_rs_eig"}

    def test_pure_tmsv_grid_entangled_and_steerable(self):
        """Every pure TMSV with r in (0, 9] is physical, non-PPT and
        steerable both ways, on both routes. This holds by the band, not
        exactly: the kernel's min_rs_eig of a pure TMSV, exactly 0, rounds
        down to -6.5 eps max|V|, past an absolute 1e-9 from r = 7.64."""
        rs = 0.005 * np.arange(1, 1801)
        sv = stack_verdicts(GeneratorSpec("tmsv").build_stack("r", rs))
        assert sv.physical.all() and not sv.ppt.any()
        assert sv.steerable_ab.all() and sv.steerable_ba.all()
        for r in rs:
            v = certify(tmsv(float(r)))
            assert (v.physical, v.ppt, v.steerable_a_to_b, v.steerable_b_to_a) == (True, False, True, True), r

    def test_one_cm_checks_agree_with_certify(self):
        # tmsv(r) for r in [7, 9] under a local squeeze and rotation: the
        # one-CM checks decide by certify's rules and band, so they agree
        # with it wherever the band matters
        rng = np.random.default_rng(20261019)
        physical = 0
        for r in np.linspace(7.0, 9.0, 201):
            for _ in range(3):
                cm = rotated_and_squeezed(tmsv(float(r)), rng)
                v = certify(cm)
                assert validate_bona_fide(cm).bona_fide == v.physical
                if v.physical:
                    physical += 1
                    assert check_unsteerable_ab(cm).det_ok is not v.steerable_a_to_b
                    assert check_unsteerable_ba(cm).matrix_ok is not v.steerable_b_to_a
        assert physical > 500

    def test_rs_band_at_7_6398(self):
        # min_rs_eig is -1.05e-9 here, past an absolute 1e-9 band but inside
        # 8 eps max|V|, which is 1.92e-9
        assert certify(tmsv(7.6398)).physical


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_certify_rejects_bad_tol(bad):
    with pytest.raises(ValueError, match="tol"):
        certify(tmsv(0.5), tol=bad)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1e-9", 1e-9 + 0j, [1e-9], b"0"])
def test_tol_must_be_a_real_number(bad):
    # True used to read as 1.0, a dead band that marks every flag marginal,
    # and a string raised numpy's TypeError
    with pytest.raises(ValueError, match="--tol must be a finite real number >= 0"):
        resolve_tolerance(bad, "--tol")
    with pytest.raises(ValueError, match="tol"):
        certify(tmsv(0.5), tol=bad)


@pytest.mark.parametrize("good", [0, 1e-9, np.float32(1e-6), np.int64(0), np.float64(1e-9)])
def test_tol_accepts_real_numbers(good):
    assert resolve_tolerance(good) == float(good)


def test_unset_tol_reads_covariance_default():
    assert resolve_tolerance(None) == DEFAULT_TOL == 1e-9
