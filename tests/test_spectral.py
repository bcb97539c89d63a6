"""The sum-zero definiteness test against a full eigendecomposition.

``sum_zero_definiteness`` reads eigenvalues only; its flags must be the ones
a full ``eigh`` of the centered matrix gives at the same threshold, on the
kernels of every generator family and on their duals.  Only
``negative_type_test`` decomposes with eigenvectors, and only on a space
that fails it, for its witness vector.
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
from rdv.cli import build_analysis
from rdv.spectral import (
    DEFINITENESS_TOL,
    centered,
    recenter_unit,
    sum_zero_definiteness,
)
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
        assert abs(defin["lam_min"] - vals[0]) <= scale
        assert abs(defin["lam_max"] - vals[-1]) <= scale
        assert set(defin) == {"lam_min", "lam_max", "psd", "nsd"}


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
        # routers, the converse hypotheses and the negative-type verdict.
        # The dual kernel's minimal energy is read from the maximal energy,
        # with no router of its own.
        assert report.verdicts["negative_type"] is True
        assert calls == {"eigh": 0, "eigvalsh": 1}
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
