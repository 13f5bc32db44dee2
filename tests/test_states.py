import numpy as np
import pytest

from cvwitness import (
    GeneratorSpec,
    noisy_tmsv,
    random_standard,
    random_two_mode_params,
    split_standard,
    thermal,
    tmsv,
    two_mode_symplectic_pair_pt,
    vacuum,
    validate_bona_fide,
)
from cvwitness.covariance import (
    partial_transpose_bob,
    standard_form_reduce_two_mode,
    symplectic_eigenvalues,
)
from conftest import purity


def test_vacuum_matrix():
    np.testing.assert_allclose(vacuum(1).matrix, 0.5 * np.eye(2))
    assert np.linalg.det(vacuum(3).matrix) == pytest.approx(2.0**-6)
    assert purity(vacuum(3)) == pytest.approx(1.0)


def test_vacuum_rejects_bad_n():
    with pytest.raises(ValueError):
        vacuum(0)


def test_thermal():
    cm = thermal([0.5])
    np.testing.assert_allclose(cm.matrix, np.eye(2))
    assert purity(cm) == pytest.approx(0.5)
    np.testing.assert_allclose(thermal([0.0, 0.0]).matrix, vacuum(2).matrix)
    nbar = [0.3, 1.7, 0.0]
    np.testing.assert_allclose(
        symplectic_eigenvalues(thermal(nbar)), np.sort(nbar)[::-1] + 0.5
    )
    with pytest.raises(ValueError, match="non-negative"):
        thermal([-0.1])
    with pytest.raises(ValueError, match="nbar must be a non-empty 1-D sequence"):
        thermal([])


def test_tmsv_values():
    r = 0.5
    cm = tmsv(r)
    assert cm.matrix[0, 0] == pytest.approx(0.7715404, abs=1e-7)
    assert cm.matrix[0, 2] == pytest.approx(0.5876005, abs=1e-7)
    assert cm.matrix[1, 3] == pytest.approx(-0.5876005, abs=1e-7)
    np.testing.assert_allclose(tmsv(0.0).matrix, vacuum(2).matrix)
    for rr in (0.1, 0.5, 2.0):
        assert np.linalg.det(tmsv(rr).matrix) == pytest.approx(1 / 16, rel=1e-10)
    with pytest.raises(ValueError):
        tmsv(-0.2)


def test_tmsv_closed_form_witnesses():
    # smallest PT symplectic eigenvalue e^(-2r)/2 and A->B determinant
    # ratio 1/(4 cosh^2(2r)) across the squeezing range
    for r in np.arange(0.0, 2.01, 0.1):
        cm = tmsv(r)
        params, _ = standard_form_reduce_two_mode(cm)
        nu_pt = two_mode_symplectic_pair_pt(params)[0]
        assert abs(nu_pt - np.exp(-2 * r) / 2) < 1e-10
        det_ratio = np.linalg.det(cm.matrix) / np.linalg.det(cm.matrix[:2, :2])
        assert abs(det_ratio - 1 / (4 * np.cosh(2 * r) ** 2)) < 1e-10


def test_noisy_tmsv():
    np.testing.assert_allclose(noisy_tmsv(0.5, 0.0, "A").matrix, tmsv(0.5).matrix)
    cm = noisy_tmsv(0.7, 0.6, "A")
    assert cm.matrix[0, 0] == pytest.approx(np.cosh(1.4) / 2 + 0.6)
    assert cm.matrix[2, 2] == pytest.approx(np.cosh(1.4) / 2)
    cm_b = noisy_tmsv(0.7, 0.6, "B")
    assert cm_b.matrix[2, 2] == pytest.approx(np.cosh(1.4) / 2 + 0.6)
    for r in (0.0, 0.5, 1.5):
        for nbar in (0.0, 0.3, 2.0):
            for side in ("A", "B"):
                assert validate_bona_fide(noisy_tmsv(r, nbar, side)).bona_fide
    with pytest.raises(ValueError, match="side"):
        noisy_tmsv(0.5, 0.1, "C")


class TestRandomStandard:
    def test_bona_fide_and_standard(self):
        for seed in range(20):
            cm = random_standard(3, seed=seed)
            assert validate_bona_fide(cm, tol=1e-9).bona_fide
            split_standard(cm)  # must not raise

    def test_spectrum_matches_sampled_values(self):
        # the construction conjugates diag(nu) (+) diag(nu) by a symplectic,
        # so the symplectic spectrum must be exactly the sampled nu
        for seed in (0, 3, 11):
            n = 3
            nu = np.random.default_rng(seed).uniform(0.5, 3.0, size=n)
            got = symplectic_eigenvalues(random_standard(n, seed=seed))
            np.testing.assert_allclose(got, np.sort(nu)[::-1], atol=1e-9)

    def test_deterministic(self):
        a = random_standard(4, seed=123)
        b = random_standard(4, seed=123)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_standard(4, seed=124)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_det_factorization(self):
        for seed in range(10):
            cm = random_standard(3, seed=seed)
            sf = split_standard(cm)
            det_v = np.linalg.det(cm.matrix)
            det_blocks = np.linalg.det(sf.vq) * np.linalg.det(sf.vp)
            assert abs(det_v - det_blocks) / abs(det_v) < 1e-12

    def test_needs_two_modes(self):
        assert random_standard(4, seed=2).n_alice == 3
        with pytest.raises(ValueError):
            random_standard(1, seed=0)


class TestRandomTwoModeParams:
    def test_physical_and_normalized(self):
        for seed in range(50):
            p = random_two_mode_params(seed=seed)
            assert p.b1 >= p.b2 >= 0.5
            assert p.c >= abs(p.d)
            cm = p.to_covariance_matrix()
            assert validate_bona_fide(cm).bona_fide

    def test_d_sign_control(self):
        assert all(
            random_two_mode_params(seed=s, d_sign=-1, min_abs_d=1e-4).d < 0
            for s in range(20)
        )
        assert all(
            random_two_mode_params(seed=s, d_sign=+1, min_abs_d=1e-4).d > 0
            for s in range(20)
        )

    def test_min_abs_d(self):
        for s in range(20):
            assert abs(random_two_mode_params(seed=s, min_abs_d=1e-3).d) >= 1e-3

    @pytest.mark.parametrize("bad", [2, 0.5, -2, True, np.nan])
    def test_bad_d_sign_rejected(self, bad):
        # 2 and 0.5 used to mean +1 silently
        with pytest.raises(ValueError, match="d_sign must be -1, 0 or 1"):
            random_two_mode_params(d_sign=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3], ids=["nan", "inf", "negative"])
    def test_bad_min_abs_d_rejected(self, bad):
        # NaN used to fail inside numpy with an OverflowError
        with pytest.raises(ValueError, match="min_abs_d must be finite and >= 0"):
            random_two_mode_params(min_abs_d=bad)


class TestGeneratorSpec:
    def test_dispatch(self):
        assert GeneratorSpec("vacuum", 3).build().n_modes == 3
        np.testing.assert_allclose(
            GeneratorSpec("tmsv", 2, {"r": 0.5}).build().matrix, tmsv(0.5).matrix
        )
        np.testing.assert_allclose(
            GeneratorSpec("thermal", 2, {"nbar": 0.5}).build().matrix,
            thermal([0.5, 0.5]).matrix,
        )
        got = GeneratorSpec("random_standard", 3, {"seed": 9}).build()
        assert np.array_equal(got.matrix, random_standard(3, seed=9).matrix)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GeneratorSpec("squeezed_cat", 2)

    @pytest.mark.parametrize("n_modes", [2.9, True, 2.0, "2", None])
    def test_from_dict_rejects_non_integer_n_modes(self, n_modes):
        # a spec read from a JSON-style record; 2.9 used to build a 2-mode state
        with pytest.raises(ValueError, match="n_modes"):
            GeneratorSpec(**{"kind": "vacuum", "n_modes": n_modes})

    @pytest.mark.parametrize("seed", [2.5, True, -1, "3"])
    def test_from_dict_rejects_bad_seed(self, seed):
        # 2.5 used to build seed 2, true seed 1, and -1 failed inside numpy
        # without naming the parameter
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(**{"kind": "random_standard", "params": {"seed": seed}})

    def test_from_dict_integer_valued_seed(self):
        got = GeneratorSpec(**{"kind": "random_standard", "params": {"seed": 3.0}})
        assert np.array_equal(got.build().matrix, random_standard(2, seed=3).matrix)

    @pytest.mark.parametrize("seeds", [[0, -1], [0, 2.5], [True]])
    def test_build_stack_rejects_bad_seed(self, seeds):
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec("random_standard", 3).build_stack("seed", seeds)

    def test_from_dict_n_modes_defaults_to_two(self):
        assert GeneratorSpec(**{"kind": "vacuum"}).n_modes == 2

    def test_thermal_list_must_match_mode_count(self):
        # a 2-value list used to give a 2-mode CM for n_modes = 3
        with pytest.raises(ValueError, match="2 occupations for 3 modes"):
            GeneratorSpec("thermal", 3, {"nbar": [0.5, 0.25]}).build()
        got = GeneratorSpec("thermal", 3, {"nbar": [0.5, 0.25, 0.0]}).build()
        assert np.array_equal(got.matrix, thermal([0.5, 0.25, 0.0]).matrix)


class TestStacks:
    """Every generator is the stack of one of its kind's stack builder, so
    a row of ``build_stack`` equals the scalar generator bit for bit."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_standard_rows(self, n):
        # for every n, some of these seeds have their first S_q rejected
        # (1 at n = 2, 10 at n = 8), so redrawing seeds is covered
        seeds = range(40)
        stack = GeneratorSpec("random_standard", n).build_stack("seed", seeds)
        assert stack.shape == (40, 2 * n, 2 * n)
        for seed, row in zip(seeds, stack, strict=True):
            assert np.array_equal(row, random_standard(n, seed=seed).matrix)

    def test_tmsv_and_noisy_tmsv_rows(self):
        rs = np.linspace(0.0, 12.0, 61)
        stack = GeneratorSpec("tmsv").build_stack("r", rs)
        for r, row in zip(rs, stack, strict=True):
            assert np.array_equal(row, tmsv(float(r)).matrix)
        nbars = np.linspace(0.0, 6.0, 31)
        for side in "AB":
            spec = GeneratorSpec("noisy_tmsv", params={"r": 1.3, "nbar": 0.2, "side": side})
            for row, nbar in zip(spec.build_stack("nbar", nbars), nbars, strict=True):
                assert np.array_equal(row, noisy_tmsv(1.3, float(nbar), side).matrix)
            for row, r in zip(spec.build_stack("r", rs), rs, strict=True):
                assert np.array_equal(row, noisy_tmsv(float(r), 0.2, side).matrix)

    def test_thermal_and_vacuum(self):
        nbars = np.linspace(0.0, 2.0, 11)
        stack = GeneratorSpec("thermal", 3).build_stack("nbar", nbars)
        for nbar, row in zip(nbars, stack, strict=True):
            assert np.array_equal(row, thermal([nbar] * 3).matrix)
        assert np.array_equal(GeneratorSpec("vacuum", 3).build().matrix, 0.5 * np.eye(6))

    def test_build_is_the_stack_of_one(self):
        specs = [
            GeneratorSpec("tmsv", 2, {"r": 0.9}),
            GeneratorSpec("noisy_tmsv", 2, {"r": 0.4, "nbar": 3.0, "side": "B"}),
            GeneratorSpec("thermal", 2, {"nbar": 0.3}),
            GeneratorSpec("random_standard", 5, {"seed": 17}),
        ]
        for spec, param in zip(specs, ("r", "nbar", "nbar", "seed")):
            row = spec.build_stack(param, [spec.params[param]])[0]
            assert np.array_equal(row, spec.build().matrix)

    def test_rejects_alice_partition_an_array_cannot_carry(self):
        # a serialized spec may still name the partition, but only Bob on the last mode
        for kind in ("random_standard", "vacuum", "thermal"):
            with pytest.raises(ValueError, match="n_alice must be 3"):
                GeneratorSpec(kind, 4, {"n_alice": 2})
            spec = GeneratorSpec(kind, 4, {"n_alice": 3, "seed": 1})
            want = GeneratorSpec(kind, 4, {"seed": 1}).build().matrix
            assert np.array_equal(spec.build().matrix, want)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="squeezing"):
            GeneratorSpec("tmsv").build_stack("r", [0.5, -0.1])
        with pytest.raises(ValueError, match="noise"):
            GeneratorSpec("noisy_tmsv").build_stack("nbar", [0.5, -0.1])
        with pytest.raises(ValueError, match="non-negative"):
            GeneratorSpec("thermal", 2).build_stack("nbar", [0.5, -0.1])


def test_every_generator_output_is_bona_fide(assorted_cms):
    for cm in assorted_cms:
        assert validate_bona_fide(cm, tol=1e-9).bona_fide


def test_partial_transpose_of_generated_states_stays_standard(assorted_cms):
    for cm in assorted_cms:
        if cm.n_modes < 2:
            continue
        split_standard(partial_transpose_bob(cm))
