"""The sum-zero definiteness test against a full eigendecomposition.

``sum_zero_definiteness`` proves its result without a spectrum where a
route applies (the trace, a transitive kernel's transform, Schoenberg's
shifted Cholesky test) and reads eigenvalues only everywhere else; its flags
must be the ones a full ``eigh`` of the centered matrix gives at the same
threshold, on the kernels of every generator family and on their duals.
Each route is also checked on its own at every size, below the size gate
too.  Only ``negative_type_test`` decomposes with eigenvectors, and only on
a space that fails it, for its witness vector.
"""
import numpy as np
import pytest

from rdv import (
    SubsetPair,
    circle,
    dual_kernel,
    generate,
    hypercube,
    interval_grid,
    negative_type_test,
    random_graph,
)
from rdv import spectral
from rdv.cli import build_analysis
from rdv.spectral import centered, recenter_unit, sum_zero_definiteness
from rdv.tolerances import DEFINITENESS_TOL
from rdv.suites import instance_space


def _cases():
    cases = [pytest.param(lambda s=s: instance_space(s), id=f"instance{s}")
             for s in range(200)]
    for m in range(3, 65):
        for metric in ("chord", "arc"):
            cases.append(pytest.param(lambda d=circle(m, metric): generate(d),
                                      id=f"circle{m}-{metric}"))
    cases += [pytest.param(lambda d=interval_grid(m): generate(d), id=f"grid{m}")
              for m in range(3, 102)]
    cases += [pytest.param(lambda d=hypercube(n): generate(d), id=f"hypercube{n}")
              for n in range(1, 7)]
    return cases


def _eigh_flags(matrix):
    vals = np.linalg.eigh(centered(matrix))[0]
    return bool(vals[0] >= -DEFINITENESS_TOL), bool(vals[-1] <= DEFINITENESS_TOL), vals


@pytest.mark.parametrize("make", _cases())
def test_flags_match_full_decomposition(make):
    space = make()
    for kernel in (space.kernel, dual_kernel(space)[0].kernel):
        defin = sum_zero_definiteness(kernel)
        psd, nsd, vals = _eigh_flags(kernel)
        assert (defin["psd"], defin["nsd"]) == (psd, nsd)
        scale = 1e-12 * max(1.0, float(np.abs(kernel).max()))
        assert abs(defin["lam_max"] - vals[-1]) <= scale
        assert set(defin) == {"lam_max", "psd", "nsd"}


def _sum_zero_eigenvalues(kernel):
    """The eigenvalues of K's form on the sum-zero subspace, by eigh."""
    m = kernel.shape[0]
    basis = np.linalg.qr(np.eye(m)[:, :-1] - 1.0 / m)[0]
    return np.linalg.eigh(basis.T @ kernel @ basis)[0]


def _gram(kernel):
    """Schoenberg's G on the first m - 1 points: x'Kx = -2 y'Gy for x = (y, -sum y)."""
    n = kernel.shape[0] - 1
    last = kernel[n, :n]
    return -0.5 * (kernel[:n, :n] - last[:, None] - last[None, :] + kernel[n, n])


def _scale(kernel):
    return max(float(kernel.max()), -float(kernel.min()))


def _routes(kernel):
    """Each route on its own, checked against eigh.  Returns ``_proof``'s
    result, the transitive spectrum with its bound, and whether the shifted
    Cholesky test passed."""
    sz = _sum_zero_eigenvalues(kernel)
    eps = 1e-12 * max(1.0, _scale(kernel))
    proved = spectral._proof(kernel, DEFINITENESS_TOL)
    if proved is not None:
        psd, nsd, vals = _eigh_flags(kernel)
        assert (proved["psd"], proved["nsd"]) == (psd, nsd)
        assert abs(proved["lam_max"] - vals[-1]) <= eps
    spectrum = spectral._transitive_spectrum(kernel)
    if spectrum is not None:
        values, err = spectrum
        assert abs(values.max() - sz.max()) <= err + eps
        assert abs(values.min() - sz.min()) <= err + eps
    strict = spectral._strictly_negative_type(kernel, _scale(kernel))
    if strict:
        assert sz.max() < eps
    return proved, spectrum, strict


PROVED = {"lam_max": 0.0, "psd": False, "nsd": True}


@pytest.mark.parametrize("make", _cases())
def test_each_route_matches_full_decomposition(make):
    """Every route at every size, below the size gate too: what a route
    proves is what eigh gives, and each family takes the route expected."""
    space = make()
    dual = dual_kernel(space)[0].kernel
    proved, spectrum, strict = _routes(space.kernel)
    _routes(dual)
    m, name = space.m, space.name
    if name.startswith("circle"):
        assert spectrum is not None and spectrum[1] > 0.0
        # an even cycle's geodesic metric has sum-zero eigenvalues 0
        assert strict is not (name.startswith(f"circle({m},arc") and m % 2 == 0)
        assert proved == (PROVED if strict else None)
    elif name.startswith("interval_grid"):
        assert spectrum is None and strict and proved == PROVED
    elif name.startswith("hypercube"):
        # exact: the Walsh-Hadamard transform of integers (two points make
        # a circulant, whose cosine transform is taken first)
        assert spectrum[1] == 0.0 or m == 2
        assert np.array_equal(np.sort(spectrum[0]), np.round(_sum_zero_eigenvalues(space.kernel)))
        # of negative type, but strictly only on two points
        assert strict is (m == 2) and proved == PROVED
    else:
        sz = _sum_zero_eigenvalues(space.kernel)
        if sz.max() < -1e-6:
            assert strict and proved == PROVED


def _circulant(row_half):
    """The symmetric circulant whose row 0 mirrors ``row_half`` (entries 0..m/2)."""
    row = np.r_[row_half, row_half[-2:0:-1]]
    m = row.size
    idx = np.arange(m)
    return row[(idx[None, :] - idx[:, None]) % m]


class TestRoutesRefuse:
    """Kernels a route must not prove; the result then comes from eigvalsh."""

    def _falls_back(self, kernel):
        assert spectral._proof(kernel, DEFINITENESS_TOL) is None
        defin = sum_zero_definiteness(kernel)
        psd, nsd, vals = _eigh_flags(kernel)
        assert (defin["psd"], defin["nsd"]) == (psd, nsd)
        assert abs(defin["lam_max"] - vals[-1]) <= 1e-12
        return defin

    def test_circulant_not_of_negative_type(self):
        # distance 1 everywhere but 3 to the antipode: eigenvalue -1 + 2(-1)^f
        half = np.r_[0.0, np.ones(31), 3.0]
        kernel = _circulant(half)
        assert spectral._transitive_spectrum(kernel)[0].max() == pytest.approx(1.0)
        assert self._falls_back(kernel)["nsd"] is False

    def test_circulant_just_above_zero(self):
        # circle(64) with its top sum-zero eigenvalue (frequency 32, the
        # alternating vector) raised to +1e-12: nsd holds at the threshold,
        # but the largest eigenvalue is not the constant vector's 0.0
        half = generate(circle(64)).kernel[0, :33]
        top = np.fft.rfft(np.r_[half, half[-2:0:-1]]).real[-1]
        kernel = _circulant(half + (1e-12 - top) / 64 * (-1.0) ** np.arange(33))
        defin = self._falls_back(kernel)
        assert defin["nsd"] is True and defin["lam_max"] > 0.0

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_hypercube_gram_is_singular(self, dim):
        kernel = generate(hypercube(dim)).kernel
        assert abs(np.linalg.eigvalsh(_gram(kernel)).min()) <= 1e-12
        assert not spectral._strictly_negative_type(kernel, _scale(kernel))
        # the exact transform proves it instead
        assert spectral._proof(kernel, DEFINITENESS_TOL) == PROVED

    def test_gram_eigenvalue_below_the_shift(self):
        # squared distances of 64 points (the last at the origin) whose Gram
        # matrix G has smallest eigenvalue 2e-13: G is positive definite, but
        # by less than the shift (about 1e-12), so the test must not pass
        n = 63
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))[0]
        gram = (basis * np.r_[2e-13, np.ones(n - 1)]) @ basis.T
        d = gram.diagonal()
        kernel = np.zeros((n + 1, n + 1))
        kernel[:n, :n] = d[:, None] + d[None, :] - 2.0 * gram
        kernel[:n, n] = kernel[n, :n] = d
        assert np.linalg.eigvalsh(_gram(kernel)).min() > 0.0
        np.linalg.cholesky(_gram(kernel))  # unshifted, it would pass
        assert not spectral._strictly_negative_type(kernel, _scale(kernel))
        self._falls_back(kernel)

    def test_xor_kernel_of_non_integers(self):
        # the Walsh-Hadamard transform is exact on integers only
        idx = np.arange(64)
        row = generate(hypercube(6)).kernel[0] + 0.1
        kernel = row[idx[:, None] ^ idx[None, :]]
        assert spectral.is_xor_invariant(kernel)
        assert spectral._transitive_spectrum(kernel) is None

    def test_xor_kernel_beyond_exact_sums(self):
        # the transform's partial sums reach 64 * 6 * 2^k, exact up to k = 44
        idx = np.arange(64)
        kernel = generate(hypercube(6)).kernel[0][idx[:, None] ^ idx[None, :]]
        assert spectral._transitive_spectrum(kernel * 2.0 ** 44) is not None
        assert spectral._transitive_spectrum(kernel * 2.0 ** 45) is None


def test_large_kernels_need_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for desc in (interval_grid(2500), circle(2048), circle(4096), hypercube(12)):
        assert sum_zero_definiteness(generate(desc).kernel) == PROVED, desc


class TestEigenvectorCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            inner = getattr(np.linalg, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("spec", [circle(64), "random"])
    def test_full_pair_analysis(self, calls, spec):
        space = instance_space(5) if spec == "random" else generate(spec)
        report, _ = build_analysis(space, SubsetPair.full(space.m), n_max=2)
        # No eigh: the analysis reads the negative-type verdict from the
        # space's spectrum.  eigvalsh: that spectrum, read by both QP
        # routers, the converse hypotheses and the negative-type verdict;
        # none on circle(64), whose result the circulant's cosine
        # transform proves.
        # The dual kernel's minimal energy is read from the maximal energy,
        # with no router of its own.
        assert report.verdicts["negative_type"] is True
        assert calls == {"eigh": 0, "eigvalsh": 1 if spec == "random" else 0}
        assert report.tolerances["negative_type"] == DEFINITENESS_TOL

    def test_subset_pair_analysis(self, calls):
        # the spectrum of K[H, H] serves w's router and the converse hypotheses
        space = generate(circle(12))
        build_analysis(space, SubsetPair((0, 3, 6, 9), tuple(range(12))), n_max=2)
        assert calls == {"eigh": 0, "eigvalsh": 2}

    def test_eigenvectors_only_for_a_witness(self, calls):
        # a space that fails the negative-type test (circle(64), which
        # passes, is pinned above): the report prints no witness vector, so
        # the analysis reads the cached spectrum and makes no eigh
        space = generate(random_graph(12, 0.5, 1))
        report, _ = build_analysis(space, SubsetPair.full(space.m), n_max=2)
        assert report.verdicts["negative_type"] is False
        assert calls == {"eigh": 0, "eigvalsh": 1}
        assert negative_type_test(space).violating_vector is not None
        assert calls == {"eigh": 1, "eigvalsh": 1}

    def test_definiteness_reads_no_eigenvector(self, monkeypatch):
        def no_vectors(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_vectors)
        for space in (generate(circle(9)), instance_space(4), generate(hypercube(3))):
            assert sum_zero_definiteness(space.kernel)["nsd"] in (True, False)

    @pytest.mark.parametrize("space", [generate(interval_grid(9)),
                                       dual_kernel(generate(circle(7)))[0],
                                       generate(random_graph(12, 0.5, 1))])
    def test_negative_type_reads_the_full_decomposition(self, space):
        # verdict and eigenvalue from the eigenvalues-only spectrum, the
        # witness from the full decomposition
        vals, vecs = np.linalg.eigh(centered(space.kernel))
        cert = negative_type_test(space)
        assert cert.extreme_eigenvalue == sum_zero_definiteness(space.kernel)["lam_max"]
        assert abs(cert.extreme_eigenvalue - vals[-1]) <= 1e-12 * (1.0 + abs(vals[-1]))
        assert cert.holds is bool(vals[-1] <= DEFINITENESS_TOL)
        if not cert.holds:
            c = recenter_unit(vecs[:, -1])
            assert cert.violating_vector.tobytes() == c.tobytes()
            assert cert.witness_energy == float(c @ space.kernel @ c)
