import json

import numpy as np
import pytest

from cvwitness import (
    CovarianceMatrix,
    GeneratorSpec,
    StandardForm,
    TwoModeStandardParams,
    aitken_factorize,
    certify,
    check_unsteerable_ab,
    check_unsteerable_ba,
    noisy_tmsv,
    partition,
    random_standard,
    random_two_mode_params,
    schur_complement,
    split_standard,
    stack_verdicts,
    standard_form_reduce_two_mode,
    thermal,
    tmsv,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    vacuum,
    validate_bona_fide,
    validate_stack,
)
from cvwitness import covariance
from cvwitness.covariance import (
    DEFAULT_TOL,
    _stack_witnesses,
    local_direct_sum,
    one_mode_rotation,
    one_mode_squeeze,
    partial_transpose_bob,
    resolve_tolerance,
    symplectic_eigenvalues,
    symplectic_form,
)
from conftest import count_lapack, product_cm, product_grid_member, purity, rotated, rotated_and_squeezed


def to_block(cm):
    """The matrix of cm reordered to (q1..qn, p1..pn)."""
    order = np.r_[0 : 2 * cm.n_modes : 2, 1 : 2 * cm.n_modes : 2]
    return cm.matrix[np.ix_(order, order)]


class TestCovarianceMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovarianceMatrix(np.ones((2, 3)))

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(m)

    def test_rejects_non_finite(self):
        m = np.eye(4)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix(m)

    def test_rejects_complex(self):
        # a Hermitian matrix used to lose its imaginary part, with a
        # ComplexWarning, and certify then ran on the real part
        m = tmsv(0.5).matrix.astype(complex)
        m[0, 2] = 0.1 + 0.3j
        m[2, 0] = 0.1 - 0.3j
        with pytest.raises(ValueError, match="covariance matrix has complex entries"):
            CovarianceMatrix(m)
        m[0, 2] = m[2, 0] = tmsv(0.5).matrix[0, 2]
        np.testing.assert_array_equal(CovarianceMatrix(m).matrix, tmsv(0.5).matrix)

    @pytest.mark.parametrize("entry", ["string", "object", "bool", "bool-object"])
    @pytest.mark.parametrize(
        "read, name",
        [
            (CovarianceMatrix, "covariance matrix"),
            (lambda m: validate_stack([m]), "member 0 of the stack"),
            (lambda m: StandardForm(m[0::2, 0::2], np.eye(2)), "vq block"),
            (validate_bona_fide, "matrix"),
        ],
        ids=["CovarianceMatrix", "validate_stack", "StandardForm", "validate_bona_fide"],
    )
    def test_rejects_non_numeric(self, read, name, entry):
        # float() parsed string entries, so "0.5" read as 0.5, an object
        # entry escaped as a TypeError, and a bool read as 1 or 0, even a
        # False in place of a 0
        if entry == "string":
            m = vacuum(2).matrix.astype(str)
        elif entry == "bool":
            m = vacuum(2).matrix.astype(bool)
        else:
            m = vacuum(2).matrix.astype(object)
            m[0, 2] = m[2, 0] = {} if entry == "object" else False
        with pytest.raises(ValueError, match=f"^{name} has non-numeric entries$"):
            read(m)

    def test_rejects_bad_n_alice(self):
        # Bob holds the last mode; a record may say so, or say nothing
        record = random_standard(3, seed=2).to_dict()
        assert record["n_alice"] == 2
        for n_alice in (None, 0, 2):
            record["n_alice"] = n_alice
            assert CovarianceMatrix.from_dict(record).n_alice == 2
        del record["n_alice"]
        assert CovarianceMatrix.from_dict(record).n_alice == 2
        for n_alice in (1, 3, -1, "2"):
            record["n_alice"] = n_alice
            with pytest.raises(ValueError, match="n_alice"):
                CovarianceMatrix.from_dict(record)

    @pytest.mark.parametrize("n_modes", [2.9, True, 2.0, "2", None])
    def test_rejects_non_integer_n_modes(self, n_modes):
        # 2.9 used to read as 2 and true as 1
        record = tmsv(0.3).to_dict()
        record["n_modes"] = n_modes
        with pytest.raises(ValueError, match="n_modes"):
            CovarianceMatrix.from_dict(record)

    def test_standard_form_partition_is_checked(self):
        vq, vp = np.eye(3), np.eye(3)
        assert StandardForm(vq, vp).n_alice == StandardForm(vq, vp, n_alice=2).n_alice == 2
        with pytest.raises(ValueError, match="n_alice"):
            StandardForm(vq, vp, n_alice=1)

    def test_standard_form_owns_read_only_blocks(self):
        # the form used to keep the caller's arrays, so a later write left
        # it non-symmetric after its checks had passed
        vq, vp = np.eye(2), np.eye(2)
        sf = StandardForm(vq=vq, vp=vp)
        vq[0, 1] = 5.0
        assert sf.vq[0, 1] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            sf.vq[0, 1] = 1.0

    @pytest.mark.parametrize("block", ["vq", "vp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_standard_form_rejects_non_finite(self, block, bad):
        # a NaN block used to pass: nan > bound is False, and Cholesky of a
        # NaN matrix does not raise
        blocks = {"vq": np.eye(3), "vp": np.eye(3)}
        blocks[block][1, 1] = bad
        with pytest.raises(ValueError, match=f"{block} block has non-finite entries"):
            StandardForm(**blocks)

    @pytest.mark.parametrize("block", ["vq", "vp"])
    def test_standard_form_rejects_complex(self, block):
        # a complex block used to be cast to its real part, with a ComplexWarning
        blocks = {"vq": np.eye(3), "vp": np.eye(3)}
        blocks[block] = blocks[block].astype(complex)
        blocks[block][0, 1] += 0.3j
        blocks[block][1, 0] -= 0.3j
        with pytest.raises(ValueError, match=f"{block} block has complex entries"):
            StandardForm(**blocks)

    def test_standard_form_rejects_empty_blocks(self):
        # 0 x 0 blocks used to fail inside numpy's max, "zero-size array to
        # reduction operation maximum which has no identity"
        with pytest.raises(ValueError, match="square matrices of equal size, at least 1 x 1"):
            StandardForm(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_standard_form_reads_zero_imaginary_parts_as_real(self):
        vq = random_standard(3, seed=4).matrix[0::2, 0::2]
        sf = StandardForm(vq.astype(complex), np.eye(3) + 0j)
        assert sf.vq.dtype == sf.vp.dtype == np.float64
        np.testing.assert_array_equal(sf.vq, vq)
        np.testing.assert_array_equal(sf.vp, np.eye(3))

    def test_matrix_is_symmetrized_copy(self):
        m = np.eye(4)
        m[0, 1] = 1e-14
        cm = CovarianceMatrix(m)
        assert cm.matrix[0, 1] == cm.matrix[1, 0] == 0.5e-14
        assert m[0, 1] == 1e-14 and m[1, 0] == 0.0

    def test_block_ordering_round_trip(self, rng):
        # block order is a file field: CovarianceMatrix itself reads interleaved only
        v = random_standard(3, seed=5)
        record = {"n_modes": 3, "ordering": "block", "matrix": to_block(v).tolist()}
        np.testing.assert_array_equal(CovarianceMatrix.from_dict(record).matrix, v.matrix)

    def test_block_file_keeps_its_bits(self, rng):
        # from_dict now permutes before the symmetrization, where
        # CovarianceMatrix used to permute after it; the two commute, so a
        # block-ordered file, here off symmetric within the tolerance, still
        # reads as 0.5 (m + m^T) permuted to interleaved, bit for bit
        n = 3
        block = to_block(random_standard(n, seed=6)) + 1e-14 * rng.standard_normal((2 * n, 2 * n))
        perm = np.arange(2 * n).reshape(2, n).T.ravel()
        want = (0.5 * (block + block.T))[np.ix_(perm, perm)]
        record = {"n_modes": n, "ordering": "block", "matrix": block.tolist()}
        assert CovarianceMatrix.from_dict(record).matrix.tobytes() == want.tobytes()

    def test_ordering_is_not_an_argument(self):
        with pytest.raises(TypeError, match="ordering"):
            CovarianceMatrix(np.eye(4), ordering="block")

    def test_json_round_trip(self, tmp_path):
        v = tmsv(0.37)
        path = tmp_path / "cm.json"
        v.save(path)
        back = CovarianceMatrix.load(path)
        np.testing.assert_allclose(back.matrix, v.matrix, rtol=0, atol=0)
        assert back.n_modes == 2 and back.n_alice == 1

    def test_load_block_ordering_file(self, tmp_path):
        v = random_standard(2, seed=8)
        payload = {
            "n_modes": 2,
            "n_alice": 1,
            "ordering": "block",
            "matrix": to_block(v).tolist(),
        }
        path = tmp_path / "blk.json"
        path.write_text(json.dumps(payload))
        back = CovarianceMatrix.load(path)
        np.testing.assert_allclose(back.matrix, v.matrix, atol=1e-15)

    def test_malformed_record(self):
        with pytest.raises(ValueError, match="malformed"):
            CovarianceMatrix.from_dict({"n_modes": 2})

    def test_unknown_ordering_rejected(self):
        record = dict(tmsv(0.3).to_dict(), ordering="x")
        with pytest.raises(ValueError, match="ordering must be one of .* got 'x'"):
            CovarianceMatrix.from_dict(record)

    def test_standard_form_rejects_asymmetric_block(self):
        with pytest.raises(ValueError, match="vq block is not symmetric"):
            StandardForm(np.array([[1.0, 0.2], [0.1, 1.0]]), np.eye(2))


class TestValidateBonaFide:
    def test_vacuum_saturates(self):
        report = validate_bona_fide(vacuum(3))
        assert report.bona_fide
        assert abs(report.min_rs_eigenvalue) < 1e-12

    def test_sub_vacuum_violates(self):
        report = validate_bona_fide(0.25 * np.eye(2))
        assert report.symmetric and report.positive_definite
        assert not report.rs_ur_satisfied
        assert report.min_rs_eigenvalue == pytest.approx(-0.25, abs=1e-12)

    def test_tmsv_is_physical(self):
        report = validate_bona_fide(tmsv(0.5))
        assert report.bona_fide

    def test_asymmetric_raw_input_flagged(self):
        m = 0.5 * np.eye(4)
        m[0, 1] = 1e-3
        report = validate_bona_fide(m)
        assert not report.symmetric

    def test_non_finite_raises(self):
        m = np.eye(4)
        m[2, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            validate_bona_fide(m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_bona_fide(np.eye(3))

    def test_non_square_raw_array_rejected(self):
        with pytest.raises(ValueError, match=r"expected a 2n x 2n matrix, got shape \(4, 3\)"):
            validate_bona_fide(np.ones((4, 3)))

    def test_rejects_complex_entries(self):
        # used to be cast to its real part, with a ComplexWarning
        m = tmsv(0.5).matrix.astype(complex)
        m[0, 2] += 0.3j
        m[2, 0] -= 0.3j
        with pytest.raises(ValueError, match="matrix has complex entries"):
            validate_bona_fide(m)

    def test_positive_definite_is_cholesky(self):
        # no absolute band: a heavily squeezed TMSV is positive definite
        # although its smallest eigenvalue is far below 1e-9
        assert validate_bona_fide(tmsv(10.0)).positive_definite
        assert not validate_bona_fide(np.diag([1.0, 1.0, 0.0, 1.0])).positive_definite

    @pytest.mark.parametrize(
        "m",
        [pytest.param(vacuum(1).matrix, id="one-mode"),
         pytest.param(0.25 * np.eye(2), id="sub-vacuum"),
         pytest.param(tmsv(11.0).matrix, id="factor-fails"),
         pytest.param(0.5 * np.eye(4) + np.triu(np.full((4, 4), 1e-3), 1), id="asymmetric")],
    )
    def test_reads_the_kernel(self, m):
        # one route to physicality: the report is the kernel's witnesses on
        # the symmetric part, bit for bit
        report = validate_bona_fide(m)
        w = _stack_witnesses(0.5 * (m + m.T)[None])
        assert report.positive_definite == w.factored[0]
        assert report.min_rs_eigenvalue == w.min_rs_eig[0]


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum(2)), [0.5, 0.5])

    def test_product_state_reads_diagonals(self):
        vals = symplectic_eigenvalues(product_cm(1.0, 0.7))
        np.testing.assert_allclose(vals, [1.0, 0.7], atol=1e-12)

    def test_tmsv_is_pure(self):
        # analytic spectrum of the two-mode squeezed vacuum: both 1/2
        vals = symplectic_eigenvalues(tmsv(0.5))
        np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-10)

    def test_rejects_non_positive_definite(self):
        m = np.diag([1.0, 1.0, -0.1, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            symplectic_eigenvalues(m)

    def test_rejects_non_finite(self):
        # used to return array([nan]) silently
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            symplectic_eigenvalues(np.full((2, 2), np.nan))

    def test_rejects_odd_size(self):
        # used to fail inside a matmul with a shape mismatch
        with pytest.raises(ValueError, match="2n x 2n"):
            symplectic_eigenvalues(np.eye(3))

    def test_rejects_asymmetric_raw_array(self):
        # a raw array is read as CovarianceMatrix reads it; the Cholesky
        # factor used to read only its lower triangle and return [0.5, 0.5]
        m = 0.5 * np.eye(4) + np.triu(np.ones((4, 4)), 1)
        with pytest.raises(ValueError, match="not symmetric"):
            symplectic_eigenvalues(m)
        assert not validate_bona_fide(m).symmetric

    def test_matches_two_mode_closed_form(self):
        # general eigensolver route vs the discriminant formulas
        for seed in range(100):
            params = random_two_mode_params(seed=seed)
            cm = params.to_covariance_matrix()
            got = symplectic_eigenvalues(cm)
            want = two_mode_symplectic_pair(params)[::-1]
            np.testing.assert_allclose(got, want, atol=1e-10)
            got_pt = symplectic_eigenvalues(partial_transpose_bob(cm))
            want_pt = two_mode_symplectic_pair_pt(params)[::-1]
            np.testing.assert_allclose(got_pt, want_pt, atol=1e-10)


class TestSymplecticSpectra:
    # the smallest symplectic eigenvalues of V and of its partial
    # transpose, both read by the certification kernel from one factor of V

    def test_matches_separate_spectra(self):
        for seed in range(20):
            cm = random_standard(2 + seed % 4, seed=seed)
            w = _stack_witnesses(cm.matrix[None])
            np.testing.assert_allclose(w.nu_min, symplectic_eigenvalues(cm).min(), rtol=1e-12)
            np.testing.assert_allclose(
                w.nu_min_pt, symplectic_eigenvalues(partial_transpose_bob(cm)).min(), rtol=1e-12
            )

    def test_tmsv_spectra(self):
        # errors scale as eps * cond(V) = eps * exp(4r)
        r = 5.0
        w = _stack_witnesses(tmsv(r).matrix[None])
        np.testing.assert_allclose(w.nu_min, 0.5, rtol=1e-5)
        np.testing.assert_allclose(w.nu_min_pt, np.exp(-2 * r) / 2, rtol=1e-5)

    def test_heavy_squeezing_does_not_raise(self):
        # one factor of V serves both spectra up to r = 10
        w = _stack_witnesses(tmsv(10.0).matrix[None])
        assert w.factored[0]
        assert w.nu_min_pt[0] < 0.5

    def test_requires_bipartite(self):
        for one_mode in ([vacuum(1)], vacuum(1).matrix[None]):
            with pytest.raises(ValueError, match="bipartite"):
                stack_verdicts(one_mode)


class TestStackWitnesses:
    def test_matches_single_cm_primitives(self, assorted_cms):
        for n in (2, 3, 4):
            cms = [cm for cm in assorted_cms if cm.n_modes == n]
            w = _stack_witnesses(np.stack([cm.matrix for cm in cms]))
            assert w.factored.all()
            for i, cm in enumerate(cms):
                schur_ab = schur_complement(cm, "A")
                schur_ba = schur_complement(cm, "B")
                got = [w.nu_min[i], w.nu_min_pt[i], w.nu_ab[i], w.nu_ba[i],
                       w.schur_nu_min[i], w.min_rs_eig[i]]
                want = [symplectic_eigenvalues(cm).min(),
                        symplectic_eigenvalues(partial_transpose_bob(cm)).min(), np.sqrt(np.linalg.det(schur_ab)),
                        np.sqrt(np.linalg.det(schur_ba)),
                        symplectic_eigenvalues(schur_ba).min(),
                        np.linalg.eigvalsh(cm.matrix + 0.5j * symplectic_form(n))[0]]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "cm",
        [pytest.param(random_standard(n, seed=s), id=f"random_standard-{n}-{s}")
         for n in range(2, 9) for s in range(4)]
        + [pytest.param(noisy_tmsv(r, nbar, side), id=f"noisy_tmsv-{r}-{nbar}-{side}")
           for r in (0.0, 0.5, 2.0, 5.0, 8.0) for nbar in (0.0, 0.1, 10.0, 1e3) for side in "AB"]
        + [pytest.param(tmsv(r), id=f"tmsv-{r}") for r in (0.0, 0.25, 1.0, 3.0, 6.0, 9.0)],
    )
    def test_one_mode_closed_forms(self, cm):
        # the one-mode closed forms for Schur complements against numpy,
        # within 8 eps ||g|| of g = V/V_X: the kernel's half trace of V/V_A
        # and, for two modes, V/V_B's symplectic eigenvalue, and
        # check_unsteerable_ab's smallest eigenvalue of V/V_A + (i/2) J_B
        w = _stack_witnesses(cm.matrix[None])
        assert w.factored[0]
        j1 = symplectic_form(1)
        checks = [(w.h_ab[0], "A", lambda g: 0.5 * np.trace(g)),
                  (check_unsteerable_ab(cm).min_rs_eigenvalue, "A", lambda g: np.linalg.eigvalsh(g + 0.5j * j1)[0])]
        if cm.n_modes == 2:
            checks.append((w.schur_nu_min[0], "B", lambda g: symplectic_eigenvalues(g)[0]))
        for got, over, reference in checks:
            g = schur_complement(cm, over)
            bound = 8 * np.finfo(float).eps * np.linalg.norm(g, 2)
            assert abs(got - reference(g)) <= bound, over

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lapack_calls_per_stack(self, monkeypatch, n):
        # one factorization of V and its Bob-first order together, and one
        # eigensolve, plus one of V/V_B's spectrum alone, a (k, 2n - 2,
        # 2n - 2) stack, when it has more than one mode; all through the
        # LAPACK entry, none through a numpy.linalg wrapper
        k, dim = 3, 2 * n
        stack = np.stack([random_standard(n, seed=s).matrix for s in range(k)])
        calls = count_lapack(monkeypatch)
        _stack_witnesses(stack)
        schur = [] if n == 2 else [(k, dim - 2, dim - 2)]
        assert calls == {"cholesky": [(2 * k, dim, dim)], "eigvalsh": [(3 * k, dim, dim), *schur]}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lapack_calls_per_certify(self, monkeypatch, n):
        # one CM runs the same stage on a stack of one
        cm, dim = random_standard(n, seed=n), 2 * n
        calls = count_lapack(monkeypatch)
        certify(cm)
        schur = [] if n == 2 else [(1, dim - 2, dim - 2)]
        assert calls == {"cholesky": [(2, dim, dim)], "eigvalsh": [(3, dim, dim), *schur]}

    def test_lapack_calls_per_failed_factor(self, monkeypatch):
        # a CM whose factor fails takes the calls of one that factors
        cm = tmsv(11.0)
        calls = count_lapack(monkeypatch)
        assert not certify(cm).physical
        assert calls == {"cholesky": [(2, 4, 4)], "eigvalsh": [(3, 4, 4)]}

    @staticmethod
    def _hex(w):
        """Each witness of one member as a bool or as its exact bits."""
        return [x if type(x) is bool else float.hex(x) for x in w]

    @staticmethod
    def _factors(m):
        """Whether numpy.linalg.cholesky factors m, and m reordered with
        Bob's mode first."""
        k = m.shape[0] - 2
        order = np.r_[k : k + 2, :k]
        out = []
        for a in (m, m[np.ix_(order, order)]):
            try:
                np.linalg.cholesky(a)
                out.append(True)
            except np.linalg.LinAlgError:
                out.append(False)
        return tuple(out)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_failed_members_take_one_pass(self, monkeypatch, n):
        # failed factors first, in the middle and last, among them one CM
        # whose factor fails only in V's order and one only in the
        # Bob-first order, each under n - 2 vacuum Alice modes: the stack
        # takes the calls of one that factors, each member gets the bits it
        # gets alone, and a member is factored iff both orders factor
        def embedded(cm):
            m = 0.5 * np.eye(2 * n)
            m[-4:, -4:] = cm.matrix
            return m

        failing = [embedded(tmsv(11.0)), embedded(noisy_tmsv(11.52, 1e-6, "A")),
                   embedded(noisy_tmsv(11.65, 1e-6, "A")), embedded(tmsv(12.0))]
        assert [self._factors(m) for m in failing] == [(False, False), (False, True), (True, False), (False, False)]
        good = [random_standard(n, seed=s).matrix for s in range(3)] + [embedded(tmsv(10.0))]
        dim = 2 * n
        for stack in (np.stack([failing[0], good[0], failing[1], good[1], failing[2], good[2], good[3], failing[3]]),
                      np.stack(failing)):
            k = len(stack)
            alone = [self._hex(covariance._float_witnesses(m)) for m in stack]
            factored = [all(self._factors(m)) for m in stack]
            calls = count_lapack(monkeypatch)
            w = _stack_witnesses(stack)
            monkeypatch.undo()
            schur = [] if n == 2 else [(k, dim - 2, dim - 2)]
            assert calls == {"cholesky": [(2 * k, dim, dim)], "eigvalsh": [(3 * k, dim, dim), *schur]}
            assert w.factored.tolist() == factored
            assert [self._hex(a.item() for a in row) for row in zip(*w)] == alone

    def test_overflowing_spectrum_is_masked(self):
        # tmsv(1) scaled to max|V| = 1.79e308 factors, but i L^T (P J P) L
        # overflows and its spectrum comes back NaN: the member is masked
        # with its own min_rs_eig and no warning, and its neighbour keeps
        # its bits (conftest raises on every floating-point error but underflow)
        m = tmsv(1.0).matrix * (1.79e308 / tmsv(1.0).matrix.max())
        w = _stack_witnesses(np.stack([m, tmsv(0.5).matrix]))
        assert w.factored.tolist() == [False, True]
        assert w.min_rs_eig[0] == np.linalg.eigvalsh(m + 0.5j * symplectic_form(2))[0]
        assert [a[1] for a in w] == list(_stack_witnesses(tmsv(0.5).matrix[None]))

    def test_lapack_errors_under_caller_errstate(self):
        # the stage's one errstate turns a failed factor into a masked
        # member under any caller's error state, and restores that state
        before = np.geterr()
        with np.errstate(all="raise"):
            raising = np.geterr()
            w = _stack_witnesses(np.stack([tmsv(0.5).matrix, tmsv(11.0).matrix, tmsv(0.5).matrix]))
            verdict = certify(tmsv(11.0))
            assert np.geterr() == raising
        assert np.geterr() == before
        assert w.factored.tolist() == [True, False, True]
        assert not verdict.physical

    def test_one_mode_closed_forms_match_on_floats(self):
        # the one-CM route runs the one-mode closed forms on Python floats;
        # on factor entries over 40 decades they must give the stack route's
        # bits
        rng = np.random.default_rng(7)
        l11, l22 = np.exp(rng.uniform(-46.0, 46.0, (2, 20000)))
        l21 = rng.standard_normal(20000) * np.exp(rng.uniform(-46.0, 46.0, 20000))
        arrays = covariance._one_mode_schur(l11, l21, l22)
        floats = [covariance._one_mode_schur(*x) for x in zip(l11.tolist(), l21.tolist(), l22.tolist())]
        assert all(type(x) is float for pair in floats for x in pair)
        assert [list(map(float.hex, pair)) for pair in floats] == [list(map(float.hex, x)) for x in zip(*arrays)]

    def test_failed_factor_marks_only_its_member(self):
        w = _stack_witnesses(np.stack([tmsv(0.5).matrix, tmsv(11.0).matrix]))
        assert w.factored.tolist() == [True, False]
        assert w.nu_min[1] == 0.0
        assert w.min_rs_eig[1] == np.linalg.eigvalsh(tmsv(11.0).matrix + 0.5j * symplectic_form(2))[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_stack(self, n):
        # used to fail in reshape(0, -1)
        w = _stack_witnesses(np.zeros((0, 2 * n, 2 * n)))
        assert len(w) == 8 and all(a.shape == (0,) for a in w)
        assert w.factored.dtype == bool


class TestPartialTranspose:
    def test_product_cm_unchanged(self):
        cm = product_cm(1.3, 0.8)
        np.testing.assert_allclose(partial_transpose_bob(cm).matrix, cm.matrix)

    def test_tmsv_flips_momentum_correlation(self):
        r = 0.5
        flipped = partial_transpose_bob(tmsv(r))
        assert flipped.matrix[1, 3] == pytest.approx(np.sinh(2 * r) / 2)
        assert flipped.matrix[0, 2] == pytest.approx(np.sinh(2 * r) / 2)

    def test_involution(self, rng):
        for seed in range(5):
            cm = random_standard(3, seed=seed)
            twice = partial_transpose_bob(partial_transpose_bob(cm))
            np.testing.assert_allclose(twice.matrix, cm.matrix, rtol=0, atol=0)

    def test_preserves_symmetry_and_definiteness(self):
        for seed in range(5):
            cm = random_standard(2, seed=seed)
            pt = partial_transpose_bob(cm)
            assert np.allclose(pt.matrix, pt.matrix.T)
            assert np.linalg.eigvalsh(pt.matrix).min() > 0


class TestSplitStandard:
    def test_vacuum(self):
        sf = split_standard(vacuum(2))
        np.testing.assert_allclose(sf.vq, 0.5 * np.eye(2))
        np.testing.assert_allclose(sf.vp, 0.5 * np.eye(2))

    def test_off_diagonal_signs_for_tmsv(self):
        sf = split_standard(tmsv(0.3))
        assert sf.vq[0, 1] == pytest.approx(np.sinh(0.6) / 2)
        assert sf.vp[0, 1] == pytest.approx(-np.sinh(0.6) / 2)

    def test_rejects_qp_correlations(self):
        m = 0.5 * np.eye(4)
        m[0, 3] = m[3, 0] = 0.1
        want = r"not in standard form: largest \|sigma\(q, p\)\| entry is 1\.000e-01"
        with pytest.raises(ValueError, match=want):
            split_standard(CovarianceMatrix(m), tol=1e-9)

    def test_band_edge(self):
        # the q-p entries are held to certify's dead band: with max|V| = 2^20
        # it is 8 eps 2^20 = 2^-29, above the default tolerance, and exact
        band = covariance._BAND_PER_NORM * 2.0**20
        assert band == 2.0**-29 > DEFAULT_TOL
        m = np.diag([2.0**20, 1.0, 1.0, 1.0])
        m[0, 3] = m[3, 0] = band
        split_standard(CovarianceMatrix(m))
        m[0, 3] = m[3, 0] = np.nextafter(band, np.inf)
        with pytest.raises(ValueError, match="not in standard form"):
            split_standard(CovarianceMatrix(m))

    def test_det_factorization(self, assorted_cms):
        for cm in assorted_cms:
            sf = split_standard(cm)
            det_v = np.linalg.det(cm.matrix)
            det_split = np.linalg.det(sf.vq) * np.linalg.det(sf.vp)
            assert abs(det_v - det_split) / abs(det_v) < 1e-12

    def test_reconstruction(self):
        cm = tmsv(0.8)
        back = split_standard(cm).to_covariance_matrix()
        np.testing.assert_allclose(back.matrix, cm.matrix, atol=1e-15)


class TestPartition:
    def test_reassembly_exact(self):
        for seed in range(4):
            cm = random_standard(3, seed=seed)
            part = partition(cm)
            k = 2 * cm.n_alice
            rebuilt = np.block(
                [[part.alice, part.cross], [part.cross.T, part.bob]]
            )
            assert np.array_equal(rebuilt, cm.matrix)
            assert part.bob.shape == (2, 2)
            assert part.cross.shape == (k, 2)


class TestSchurComplement:
    def test_product_cm_gives_other_block(self):
        cm = product_cm(1.3, 0.8)
        np.testing.assert_allclose(schur_complement(cm, "B"), 1.3 * np.eye(2))
        np.testing.assert_allclose(schur_complement(cm, "A"), 0.8 * np.eye(2))

    def test_tmsv_over_alice(self):
        b = np.cosh(1.0) / 2
        got = schur_complement(tmsv(0.5), "A")
        np.testing.assert_allclose(got, np.eye(2) / (4 * b), atol=1e-14)

    def test_tmsv_over_bob(self):
        r = 3.0
        got = schur_complement(tmsv(r), "B")
        np.testing.assert_allclose(got, np.eye(2) / (2 * np.cosh(2 * r)), rtol=1e-9)

    def test_positive_definite_by_construction(self):
        # at r = 10 the complement I / (2 cosh 20) is lost to rounding,
        # but unlike a solve-based complement it stays positive definite
        np.linalg.cholesky(schur_complement(tmsv(10.0), "B"))

    def test_determinant_identity(self):
        for seed in range(100):
            cm = random_standard(np.random.default_rng(seed).integers(2, 5), seed=seed)
            det_v = np.linalg.det(cm.matrix)
            part = partition(cm)
            for over, block in (("B", part.bob), ("A", part.alice)):
                schur = schur_complement(cm, over)
                lhs = np.linalg.det(schur)
                rhs = det_v / np.linalg.det(block)
                assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_singular_block_raises(self):
        m = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            schur_complement(CovarianceMatrix(m), "B")

    def test_bad_over_value(self):
        with pytest.raises(ValueError, match="over"):
            schur_complement(vacuum(2), "C")


class TestAitkenFactorize:
    def test_product_cm(self):
        cm = product_cm(1.1, 0.9)
        t, d = aitken_factorize(cm)
        np.testing.assert_allclose(t, np.eye(4))
        np.testing.assert_allclose(d, cm.matrix)

    def test_reconstruction(self, assorted_cms):
        for cm in assorted_cms:
            if cm.n_modes < 2:
                continue
            t, d = aitken_factorize(cm)
            resid = np.abs(t @ d @ t.T - cm.matrix).max()
            assert resid < 1e-12 * max(np.abs(cm.matrix).max(), 1.0)

    def test_unimodular(self):
        cm = random_standard(3, seed=11)
        t, _ = aitken_factorize(cm)
        assert np.linalg.det(t) == 1.0

    def test_block_structure(self):
        cm = tmsv(0.5)
        t, d = aitken_factorize(cm)
        np.testing.assert_allclose(d[:2, 2:], 0.0, atol=0)
        np.testing.assert_allclose(t[2:, :2], 0.0, atol=0)
        np.testing.assert_allclose(d[2:, 2:], partition(cm).bob)


class TestTwoModeParams:
    def test_ordering_invariants(self):
        # party order: Alice's variance may be the smaller one
        assert TwoModeStandardParams(0.7, 1.0, 0.0, 0.0).b1 == 0.7
        with pytest.raises(ValueError, match="b1 >= 1/2"):
            TwoModeStandardParams(0.4, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="b2 >= 1/2"):
            TwoModeStandardParams(1.0, 0.4, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"c >= \|d\|"):
            TwoModeStandardParams(1.0, 0.8, 0.1, 0.3)

    def test_symplectic_pair_product_state(self):
        params = TwoModeStandardParams(1.0, 0.7, 0.0, 0.0)
        assert two_mode_symplectic_pair(params) == pytest.approx((0.7, 1.0))

    def test_negative_discriminant_rejected(self):
        # c >= |d| holds but the parameters are far from physical
        params = TwoModeStandardParams(1.0, 0.5, 1.0, -1.0)
        with pytest.raises(ValueError, match="discriminant"):
            two_mode_symplectic_pair(params)

    @pytest.mark.parametrize(
        "b1, b2, c, d",
        [
            (1.0, 0.5, 0.8, 0.0),  # det V = -0.07
            (0.5, 0.5, 1.0, -1.0),  # nu_plus^2 = -0.75
            # det V = -8.6e-11 and -4.7e-12: nu_minus^2 as the difference
            # (Delta - sqrt(...)) / 2 rounded below -1e-12 and was refused,
            # but the quotient det V / nu_plus^2 does not round past -1e-12;
            # the first one's partial transpose, of the same det V, used to
            # return (0.0, 21.05)
            (11.504128918429144, 11.504128918429144, 11.504128918429195, -7.755616061389981),
            (1.5373979061114667, 1.2722514250167443, 1.3985552105192496, -0.24912233957323943),
        ],
    )
    def test_non_physical_rejected(self, b1, b2, c, d):
        params = TwoModeStandardParams(b1, b2, c, d)
        with pytest.raises(ValueError, match="non-physical"):
            two_mode_symplectic_pair(params)
        if (b1 * b2 - c * c) * (b1 * b2 - d * d) < 0:
            # the partial transpose keeps det V
            with pytest.raises(ValueError, match="non-physical"):
                two_mode_symplectic_pair_pt(params)


class TestStandardFormReduce:
    def test_already_standard_tmsv(self):
        for r in (0.5, 3.0, 4.0, 5.0, 6.0):
            params, s_local = standard_form_reduce_two_mode(tmsv(r))
            assert params.b1 == pytest.approx(np.cosh(2 * r) / 2, abs=1e-12)
            assert params.b2 == pytest.approx(np.cosh(2 * r) / 2, abs=1e-12)
            assert params.c == pytest.approx(np.sinh(2 * r) / 2, abs=1e-12)
            assert params.d == pytest.approx(-np.sinh(2 * r) / 2, abs=1e-12)
            # s_local is a local symplectic: the transform must stay in
            # standard form with the same parameters
            w = s_local @ tmsv(r).matrix @ s_local.T
            np.testing.assert_allclose(np.abs(w), np.abs(tmsv(r).matrix), atol=1e-12)
            # nu~_- = e^(-2r)/2: as the difference (Delta - sqrt(...)) / 2 it
            # cancelled, off by 6.9e-4 relative at r = 4 and 0.0 from r = 5
            nu_pt = two_mode_symplectic_pair_pt(params)[0]
            assert nu_pt == pytest.approx(np.exp(-2 * r) / 2, rel=1e-6), r

    def test_round_trip_under_rotations(self, rng):
        for r in (0.2, 0.5, 1.1):
            cm = tmsv(r)
            for _ in range(5):
                thetas = rng.uniform(0, 2 * np.pi, size=2)
                params, s_local = standard_form_reduce_two_mode(rotated(cm, thetas))
                assert params.b1 == pytest.approx(np.cosh(2 * r) / 2, abs=1e-9)
                assert params.b2 == pytest.approx(np.cosh(2 * r) / 2, abs=1e-9)
                assert params.c == pytest.approx(np.sinh(2 * r) / 2, abs=1e-9)
                assert params.d == pytest.approx(-np.sinh(2 * r) / 2, abs=1e-9)

    def test_spectrum_preserved(self, rng):
        # local rotations, then local squeezes followed by Bob's pi
        # rotation, which negates the cross block
        bases = [random_two_mode_params(seed=seed).to_covariance_matrix() for seed in range(100)]
        bob_pi = local_direct_sum([np.eye(2), -np.eye(2)])
        cms = [rotated(base, rng.uniform(0, 2 * np.pi, size=2)) for base in bases]
        cms += [
            CovarianceMatrix(bob_pi @ rotated_and_squeezed(base, rng).matrix @ bob_pi.T)
            for base in bases
        ]
        for cm in cms:
            params, s_local = standard_form_reduce_two_mode(cm)
            want = symplectic_eigenvalues(cm)
            got = two_mode_symplectic_pair(params)[::-1]
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert params.c >= 0 and abs(params.d) <= params.c * (1 + 1e-12)
            # the reduced matrix is genuinely standard form
            w = CovarianceMatrix(s_local @ cm.matrix @ s_local.T)
            sf = split_standard(w, tol=1e-8)
            assert abs(sf.vq[0, 1]) >= abs(sf.vp[0, 1]) - 1e-9

    def test_params_invariant_under_local_rotations(self, rng):
        base = random_two_mode_params(seed=77).to_covariance_matrix()
        ref, _ = standard_form_reduce_two_mode(base)
        for _ in range(10):
            cm = rotated(base, rng.uniform(0, 2 * np.pi, size=2))
            params, _ = standard_form_reduce_two_mode(cm)
            assert params.b1 == pytest.approx(ref.b1, abs=1e-9)
            assert params.b2 == pytest.approx(ref.b2, abs=1e-9)
            assert params.c == pytest.approx(ref.c, abs=1e-9)
            assert params.d == pytest.approx(ref.d, abs=1e-9)

    def test_party_order_kept(self):
        # Bob's noise makes his variance the larger one, under local moves too
        for r, nbar in ((0.3, 0.2), (0.7, 0.3), (1.5, 1.0)):
            cm = noisy_tmsv(r, nbar, "B")
            want = np.diag(cm.matrix)[[0, 2]]
            for moved in (cm, rotated_and_squeezed(cm, np.random.default_rng(5), max_z=3.0)):
                params, _ = standard_form_reduce_two_mode(moved)
                assert isinstance(params.b1, float) and isinstance(params.b2, float)
                assert params.b1 < params.b2
                np.testing.assert_allclose((params.b1, params.b2), want, rtol=1e-9)

    def test_squeezed_bob_block_reduced(self):
        # Bob's vacuum mode rotated by 0.668 and squeezed by 9.3: an
        # eigensolver whitening his block found it not positive definite.
        # The doubles keep half its determinant, so b2 = sqrt(det) is
        # clamped to 1/2
        params, _ = standard_form_reduce_two_mode(product_grid_member(17, 93))
        assert (params.b1, params.b2, params.c, params.d) == (0.5, 0.5, 0.0, 0.0)

    def test_lost_local_determinant_refused(self):
        # rotated by 1.100 instead, the doubles lose Bob's determinant
        # altogether, while certify still calls the CM physical
        cm = product_grid_member(28, 93)
        assert certify(cm).physical
        with pytest.raises(ValueError, match="local block with non-positive determinant"):
            standard_form_reduce_two_mode(cm)

    def test_rejects_non_physical(self):
        with pytest.raises(ValueError, match="bona fide"):
            standard_form_reduce_two_mode(CovarianceMatrix(0.25 * np.eye(4)))

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError, match="two-mode"):
            standard_form_reduce_two_mode(vacuum(3))


class TestGaussianPurity:
    def test_vacuum_pure(self):
        assert purity(vacuum(3)) == pytest.approx(1.0)

    def test_thermal_half(self):
        assert purity(thermal([0.5])) == pytest.approx(0.5)

    def test_tmsv_pure_any_r(self):
        for r in (0.0, 0.4, 1.5):
            assert purity(tmsv(r)) == pytest.approx(1.0, abs=1e-10)


class TestGlobalInvariants:
    def test_williamson_bound_and_spectrum_floor(self, assorted_cms):
        for cm in assorted_cms:
            n = cm.n_modes
            assert np.linalg.det(cm.matrix) >= 2.0 ** (-2 * n) - 1e-12
            assert symplectic_eigenvalues(cm).min() >= 0.5 - 1e-10

    def test_symplectic_form_squares_to_minus_one(self):
        j = symplectic_form(3)
        np.testing.assert_allclose(j @ j, -np.eye(6))


class TestValidateStack:
    """The one validator: an array stack at once, and CovarianceMatrix as
    its stack of one."""

    def test_returns_symmetrized_copy_equal_to_members(self):
        stack = np.stack([random_standard(3, seed=s).matrix for s in range(4)])
        stack[2, 0, 1] += 1e-15
        got = validate_stack(stack)
        assert got is not stack and stack[2, 0, 1] != stack[2, 1, 0]
        for member, row in zip(stack, got, strict=True):
            assert np.array_equal(row, CovarianceMatrix(member).matrix)

    @pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 4, 6), (1, 2, 4, 4)])
    def test_rejects_shape_naming_the_expected_one(self, shape):
        with pytest.raises(ValueError, match=r"\(k, 2n, 2n\)"):
            validate_stack(np.zeros(shape))

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            validate_stack(np.zeros((2, 3, 3)))

    def test_non_finite_member_named(self):
        stack = np.stack([np.eye(4)] * 5)
        stack[3, 2, 2] = np.inf
        stack[4, 0, 0] = np.nan
        with pytest.raises(ValueError, match="member 3 of the stack has non-finite"):
            validate_stack(stack)

    def test_asymmetric_member_named(self):
        stack = np.stack([np.eye(4)] * 5)
        stack[1, 0, 1] = 1e-6
        with pytest.raises(ValueError, match="member 1 of the stack is not symmetric"):
            validate_stack(stack)

    def test_symmetry_tolerance_is_relative_per_member(self):
        # 1e-9 off-diagonal is within 1e-12 of a member of scale 1e6 only
        stack = np.stack([np.eye(4), 1e6 * np.eye(4)])
        stack[:, 0, 1] = 5e-7
        with pytest.raises(ValueError, match="member 0 "):
            validate_stack(stack)
        validate_stack(stack[1:])

    def test_empty_stack(self):
        assert validate_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_rereading_keeps_every_bit(self):
        # the symmetrizer keeps an entry equal to its mirror: halving would
        # round an odd multiple of the smallest subnormal, 5e-324 to 0
        m = 0.5 * np.eye(4)
        m[0, 3] = m[3, 0] = 5e-324
        m[1, 2] = m[2, 1] = 3 * 5e-324
        cm = CovarianceMatrix(m)
        assert cm.matrix.tobytes() == m.tobytes()
        assert validate_stack(cm.matrix[None])[0].tobytes() == m.tobytes()
        # equal but not the same bits: both sides read 0.5 (0.0 + -0.0) = +0.0
        m[0, 1], m[1, 0] = 0.0, -0.0
        assert not np.signbit(CovarianceMatrix(m).matrix[[0, 1], [1, 0]]).any()


class TestHugeEntries:
    """Finite entries up to the top of the double range are read without
    overflow: the symmetrization and the symmetry test halve before they
    add or subtract. 0.5 (m + m^T) used to turn 1e308 into inf."""

    def test_matrix_keeps_its_largest_entry(self):
        assert CovarianceMatrix(np.diag([1e308, 1.0, 1.0, 1.0])).matrix[0, 0] == 1e308

    def test_reading_commutes_with_scaling_by_powers_of_two(self, rng):
        v = rng.uniform(0.25, 0.5, (6, 6))
        v = v + v.T + 1e-14 * rng.uniform(-1.0, 1.0, (6, 6))
        assert np.abs(v).max() < 1.0  # so 2^1024 v is finite, its sums are not
        base = CovarianceMatrix(v).matrix
        assert not np.array_equal(base, v)
        for k in range(1025):
            got = CovarianceMatrix(np.ldexp(v, k)).matrix
            assert got.tobytes() == np.ldexp(base, k).tobytes(), k

    def test_huge_asymmetric_pair_is_refused(self):
        # m - m^T overflowed in the symmetry test
        m = np.eye(4)
        m[0, 1], m[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match="covariance matrix is not symmetric"):
            CovarianceMatrix(m)


_RULE_MESSAGE_CASES = [
    ("n_alice", 1, "n_alice must be 2, as Bob holds the last mode, got 1"),
    ("n_alice", -1, "n_alice must be 2, as Bob holds the last mode, got -1"),
    ("n_alice", "2", "n_alice must be 2, as Bob holds the last mode, got '2'"),
    ("n_modes", 2.9, "n_modes must be an integer >= 1, got 2.9"),
    ("n_modes", True, "n_modes must be an integer >= 1, got True"),
    ("n_modes", "3", "n_modes must be an integer >= 1, got '3'"),
    ("n_modes", 0, "n_modes must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize("field, value, message", _RULE_MESSAGE_CASES)
def test_one_message_per_input_rule(field, value, message):
    # the n_alice and n_modes rules are each written once in covariance, so
    # a file record, a standard form and a generator spec refuse alike
    record = {"n_modes": 3, "matrix": (0.5 * np.eye(6)).tolist(), field: value}
    readers = {
        "from_dict": lambda: CovarianceMatrix.from_dict(record),
        "GeneratorSpec": lambda: GeneratorSpec(
            "vacuum", record["n_modes"], {"n_alice": record.get("n_alice")}
        ),
    }
    if field == "n_alice":  # a standard form counts its modes from its blocks
        readers["StandardForm"] = lambda: StandardForm(np.eye(3), np.eye(3), n_alice=value)
    for name, read in readers.items():
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == message, name


def nonstandard_tmsv():
    """tmsv(0.5) under a local squeeze and rotation of Alice's mode: its
    largest q-p covariance is 0.511."""
    s = local_direct_sum([one_mode_rotation(0.7) @ one_mode_squeeze(0.3), np.eye(2)])
    return CovarianceMatrix(s @ tmsv(0.5).matrix @ s.T)


# each public tol goes through resolve_tolerance; unchecked, tol=nan let
# split_standard drop a 0.51 q-p covariance, tol=inf let
# check_unsteerable_ba pass tmsv(0.5), and tol=nan failed the vacuum
_TOL_TAKERS = {
    "resolve_tolerance": resolve_tolerance,
    "validate_bona_fide": lambda tol: validate_bona_fide(vacuum(2), tol=tol),
    "split_standard": lambda tol: split_standard(nonstandard_tmsv(), tol=tol),
    "standard_form_reduce_two_mode": lambda tol: standard_form_reduce_two_mode(tmsv(0.5), tol=tol),
    "check_unsteerable_ab": lambda tol: check_unsteerable_ab(tmsv(0.5), tol=tol),
    "check_unsteerable_ba": lambda tol: check_unsteerable_ba(tmsv(0.5), tol=tol),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, True, 10**400], ids=["nan", "inf", "-1", "True", "1e400"])
@pytest.mark.parametrize("func", sorted(_TOL_TAKERS))
def test_tol_is_checked(func, bad):
    with pytest.raises(ValueError, match="tol must be a finite real number >= 0"):
        _TOL_TAKERS[func](bad)
