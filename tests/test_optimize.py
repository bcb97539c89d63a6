"""LP solver certificates and quadratic optimization on the simplex."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdv import (
    CapExceededError,
    DimensionMismatchError,
    EmptySubsetError,
    IndexOutOfRangeError,
    KernelSpace,
    NonFiniteEntryError,
    NumericalBreakdownError,
    SubsetPair,
    circle,
    dual_kernel,
    generate,
    hypercube,
    interval_grid,
    random_graph,
)
from rdv.core import validate_kernel
from rdv.minimax import level_program
import rdv.minimax as minimax_mod
import rdv.optimize as optimize_mod
from rdv.optimize import (
    _ENUM_CHUNK,
    QP_ENUM_LIMIT,
    LinearProgram,
    _certify,
    _enumerate_supports,
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
    solve_lp,
)
from rdv.spectral import sum_zero_definiteness
from rdv.suites import instance_pairs, instance_space, run_suites
from rdv.tolerances import QP_GAP_TOL

import oracles
from oracles import away_fw_loop, enumerate_supports_loop, grid_energy, simplex_reference


def _lp(c, A, senses, b, basis):
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        A=np.asarray(A, dtype=float),
        senses=tuple(senses),
        b=np.asarray(b, dtype=float),
        basis=basis,
    )


def _boxed(c, A, b, ub):
    """min c @ x subject to A @ x <= b >= 0 and the box x <= ub as extra rows,
    started from the slack basis."""
    n, rows = len(c), len(b) + len(c)
    return _lp(c, np.vstack([A, np.eye(n)]), ("<=",) * rows,
               np.concatenate([b, np.full(n, ub)]), tuple(range(n, n + rows)))


class TestLpBasics:
    def test_two_point_level_program(self):
        # minimize t subject to mu0 + mu1 = 1, k-potential <= t at both points
        sol = solve_lp(
            _lp(
                c=[0.0, 0.0, 1.0],
                A=[[0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 0.0]],
                senses=("<=", "<=", "="),
                b=[0.0, 0.0, 1.0],
                # the Dirac vertex mu0 = t = 1, slack of row 0 at 1
                basis=(0, 2, 3),
            )
        )
        assert sol.objective == pytest.approx(0.5, abs=1e-12)
        assert sol.x[:2] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_knapsack_corner(self):
        sol = solve_lp(_lp([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0], basis=(2,)))
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible(self):
        # the slack basis of a row with b < 0 starts at a negative slack
        lp = _lp([1.0], [[1.0], [-1.0]], ("<=", "<="), [-2.0, 1.0], basis=(1, 2))
        with pytest.raises(NumericalBreakdownError, match="starting basis is infeasible"):
            solve_lp(lp)

    def test_unbounded(self):
        # x0 prices out negative, and no row bounds its step
        lp = _lp([-1.0], [[0.0]], ("<=",), [1.0], basis=(1,))
        with pytest.raises(NumericalBreakdownError, match="empty ratio test"):
            solve_lp(lp)

    def test_singular_basis(self):
        lp = _lp([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ("=", "="), [1.0, 2.0], basis=(0, 1))
        with pytest.raises(NumericalBreakdownError, match="singular"):
            solve_lp(lp)

    def test_equality_rows(self):
        sol = solve_lp(
            _lp(
                [1.0, 2.0, 3.0],
                [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                ("=", "="),
                [1.0, 0.25],
                # x = (0.25, 0, 0.75), objective 2.5
                basis=(0, 2),
            )
        )
        # x = (x0, x0 - 1/4, 1.25 - 2 x0): cheapest at x2 = 0, x0 = 0.625
        assert sol.objective == pytest.approx(0.625 + 2 * 0.375, abs=1e-10)

    def test_vertex_solution_keeps_exact_zeros(self):
        # minimum over the simplex sits at a vertex; off-vertex mass is 0.0 exactly
        sol = solve_lp(
            _lp(
                [3.0, 1.0, 2.0, 5.0],
                [[1.0, 1.0, 1.0, 1.0]],
                ("=",),
                [1.0],
                basis=(0,),
            )
        )
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.x[0] == 0.0 and sol.x[2] == 0.0 and sol.x[3] == 0.0

    def test_size_cap(self):
        with pytest.raises(CapExceededError):
            _lp(
                np.zeros(10_001),
                np.zeros((1, 10_001)),
                ("<=",),
                [1.0],
                basis=(10_001,),
            )

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: _lp([1.0, 2.0], [[1.0]], ("<=",), [1.0], basis=(2,)),
            lambda: _lp([1.0], [[1.0]], ("<=", "<="), [1.0], basis=(1,)),
            lambda: _lp([1.0], [[1.0]], ("<",), [1.0], basis=(1,)),
            lambda: _lp([1.0], [[1.0]], (">=",), [1.0], basis=(1,)),
        ],
    )
    def test_shape_validation(self, bad):
        with pytest.raises(DimensionMismatchError):
            bad()

    @pytest.mark.parametrize("basis", [(), (0, 1, 2), (0, 0), (0, 3), (-1, 0)],
                             ids=["short", "long", "repeated", "past-slacks", "negative"])
    def test_basis_validation(self, basis):
        # two columns and one slack: standard-form columns 0, 1, 2
        with pytest.raises(DimensionMismatchError, match="basis"):
            _lp([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], ("=", "<="), [1.0, 1.0], basis)

    def test_nonfinite_data(self):
        with pytest.raises(NonFiniteEntryError):
            _lp([np.inf], [[1.0]], ("<=",), [1.0], basis=(1,))


class TestLpWork:
    """``LpSolution`` counts its pivots, its basis inversions and the safe-mode retry."""

    FORMS = [(True, False), (False, True), (True, True)]

    def test_level_pivots_pinned(self):
        # From the Dirac vertex: 951 pivots.  Phase 1 plus phase 2 from the
        # slack-and-artificial start took 723 + 1020 = 1743.  600 basis
        # inversions: one per start basis, and one more to confirm the
        # optimum of each of the 300 solves that pivots.
        total, refactorizations, retried = 0, 0, False
        for seed in range(100):
            space = instance_space(seed)
            for roof, floor in self.FORMS:
                sol = solve_lp(level_program(space, SubsetPair.full(space.m), roof, floor))
                total += sol.pivots
                refactorizations += sol.refactorizations
                retried |= sol.retried
        assert total == 951
        assert refactorizations == 600
        assert not retried

    def test_safe_mode_retry_is_counted(self, monkeypatch):
        space = instance_space(3)
        lp = level_program(space, SubsetPair.full(space.m), True, True)
        plain = solve_lp(lp)
        run = optimize_mod._Simplex.run

        def first_breaks(sx, c):
            if not sx.bland_from_start:
                raise NumericalBreakdownError("forced breakdown of the first attempt")
            return run(sx, c)

        monkeypatch.setattr(optimize_mod._Simplex, "run", first_breaks)
        retried = solve_lp(lp)
        assert not plain.retried and retried.retried
        assert retried.pivots > 0
        # both counters are those of the safe-mode solve alone
        A_std, c_std = optimize_mod._to_standard_form(lp)
        safe = optimize_mod._Simplex(A_std, lp.b, lp.basis, refresh=8, bland_from_start=True)
        run(safe, c_std)
        assert (retried.pivots, retried.refactorizations) == (safe.pivots, safe.refactorizations)
        assert retried.objective == pytest.approx(plain.objective, abs=1e-12)


def _duality_lps():
    """25 random LPs with a box, started from the slack basis."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, rows = 6, 4
        A = rng.normal(size=(rows, n))
        x0 = rng.dirichlet(np.ones(n))
        b = np.abs(A @ x0) + rng.uniform(0.0, 1.0, size=rows)
        c = rng.normal(size=n)
        yield A, b, _boxed(c, A, b, 2.0)


def _rounded_lps():
    """40 random LPs of 2-7 variables and 1-5 rows, data rounded, box 1.5."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        rows = int(rng.integers(1, 6))
        A = rng.normal(size=(rows, n)).round(3)
        x0 = rng.dirichlet(np.ones(n))
        b = (np.abs(A @ x0) + rng.uniform(0.0, 1.0, size=rows)).round(3)
        c = rng.normal(size=n).round(3)
        yield c, A, b, _boxed(c, A, b, 1.5)


def _equality_lps():
    """20 LPs with two '=' rows and the box x <= 3, started from x0, x1 and
    the box slacks: b is built from positive x0, x1 so that start is feasible."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A = rng.normal(size=(2, n)).round(3)
        b = (A[:, :2] @ rng.uniform(0.2, 1.0, size=2)).round(6)
        c = rng.normal(size=n).round(3)
        yield c, A, b, _lp(c, np.vstack([A, np.eye(n)]), ("=", "=") + ("<=",) * n,
                           np.concatenate([b, np.full(n, 3.0)]),
                           (0, 1) + tuple(range(n, 2 * n)))


class TestLpDuality:
    def test_dual_signs_and_strong_duality(self):
        for A, b, lp in _duality_lps():
            sol = solve_lp(lp)
            # feasibility of the returned vertex
            assert np.all(A @ sol.x <= b + 1e-9)
            assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 2.0 + 1e-9)
            # dual signs for <= rows of a minimization, box rows included
            assert np.all(sol.y <= 1e-9)

    def test_agrees_with_reference_solver(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial, (c, A, b, lp) in enumerate(_rounded_lps()):
            sol = solve_lp(lp)
            ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0.0, 1.5)] * len(c), method="highs")
            assert ref.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"

    def test_equality_duals_match_reference(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial, (c, A, b, lp) in enumerate(_equality_lps()):
            sol = solve_lp(lp)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0.0, 3.0)] * len(c), method="highs")
            assert ref.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            assert sol.y[:2] == pytest.approx(ref.eqlin.marginals, abs=1e-7), f"trial {trial}"
            assert sol.y[2:] == pytest.approx(ref.upper.marginals, abs=1e-7), f"trial {trial}"


def _solve_keeping_basis(lp):
    """``solve_lp(lp)`` and the final basis of the simplex run that returned it."""
    ends = []
    run = optimize_mod._Simplex.run

    def recording(sx, c):
        run(sx, c)
        ends.append(tuple(sx.basis.tolist()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_mod._Simplex, "run", recording)
        sol = solve_lp(lp)
    return sol, ends[-1]


def _assert_same_as_reference(lp, label):
    sol, basis = _solve_keeping_basis(lp)
    ref = simplex_reference(lp)
    assert sol.x.tobytes() == ref["x"].tobytes(), label
    assert sol.y.tobytes() == ref["y"].tobytes(), label
    assert sol.objective == ref["objective"], label
    assert (sol.pivots, sol.refactorizations, sol.retried) == (
        ref["pivots"], ref["refactorizations"], ref["retried"]), label
    assert basis == ref["basis"], label
    return sol


@pytest.fixture(scope="module")
def suite_level_programs():
    """Every level program that ``run_suites("all", 100)`` solves, in order."""
    lps = []
    solve = minimax_mod.solve_lp

    def recording(lp):
        lps.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax_mod, "solve_lp", recording)
        run_suites("all", 100)
    return lps


class TestSimplexReference:
    """``solve_lp`` against the loop that chose with numpy calls, bit for bit:
    same x, y, objective, pivots, refactorizations, retry and final basis."""

    def test_suite_level_programs(self, suite_level_programs):
        pivots = refactorizations = 0
        for k, lp in enumerate(suite_level_programs):
            sol = _assert_same_as_reference(lp, f"level program {k}")
            pivots += sol.pivots
            refactorizations += sol.refactorizations
        # the suites share each instance's solves, so no program is solved twice
        assert (len(suite_level_programs), pivots, refactorizations) == (657, 1360, 1174)
        keys = {(lp.c.tobytes(), lp.A.shape, lp.A.tobytes(), lp.senses, lp.b.tobytes(), lp.basis)
                for lp in suite_level_programs}
        assert len(keys) == len(suite_level_programs)

    def test_random_lps(self):
        lps = [lp for *_, lp in _duality_lps()]
        lps += [lp for *_, lp in _rounded_lps()]
        lps += [lp for *_, lp in _equality_lps()]
        for k, lp in enumerate(lps):
            _assert_same_as_reference(lp, f"random LP {k}")

    def test_safe_mode_loop(self, suite_level_programs):
        # the safe-mode settings (refresh 8, Bland's rule throughout), which
        # no solve above needs, on every level program
        for k, lp in enumerate(suite_level_programs):
            A_std, c_std = optimize_mod._to_standard_form(lp)
            loops = [cls(A_std, lp.b, lp.basis, refresh=8, bland_from_start=True)
                     for cls in (optimize_mod._Simplex, oracles._CountedReference)]
            for sx in loops:
                sx.run(c_std)
            new, ref = loops
            assert (new.pivots, new.refactorizations) == (ref.pivots, ref.refactorizations), k
            assert new.basis.tobytes() == ref.basis.tobytes(), k
            assert new.B_inv.tobytes() == ref.B_inv.tobytes(), k


class TestCertificate:
    """Each KKT check of the certificate, just past and just inside its tolerance.

    LP: minimize x0 + 2 x1 subject to x0 <= 2 and x0 + x1 = 1; optimum
    x = (1, 0), y = (0, 1), objective 1.
    """

    LP = _lp([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]], ("<=", "="), [2.0, 1.0], basis=(0, 2))

    @pytest.mark.parametrize(
        "x, y, objective, match",
        [
            ([2.0 + 2e-9, -1.0 - 2e-9], [0.0, 1.0], 0.0, r"primal residual .* \(<=\)"),
            ([1.0, 2e-9], [0.0, 1.0], 1.0, r"primal residual .* \(=\)"),
            ([1.0 - 2e-9, 0.0], [0.0, 1.0], 1.0, r"primal residual .* \(=\)"),
            ([1.0, 0.0], [2e-9, 1.0], 1.0, "dual sign"),
            ([1.0 + 2e-9, -2e-9], [0.0, 1.0], 1.0, "bound violation"),
            ([1.0, 0.0], [-1.0 - 2e-9, 2.0 + 2e-9], 1.0, "reduced cost"),
            ([1.0, 0.0], [-2e-9, 1.0], 1.0, "reduced cost"),
            ([1.0, 0.0], [0.0, 1.0 + 2e-9], 1.0, "reduced cost"),
            ([1.0, 0.0], [0.0, 1.0], 1.0 + 2e-8, "duality gap"),
            ([1.0, 0.0], [0.0, 1.0], 1.0 - 2e-8, "duality gap"),
            # NaN passes every comparison, so each of x, y and the objective
            # is checked for finiteness first
            ([np.nan, np.nan], [np.nan, np.nan], np.nan, "non-finite"),
            ([1.0, np.nan], [0.0, 1.0], 1.0, "non-finite"),
            ([1.0, 0.0], [np.nan, 1.0], 1.0, "non-finite"),
            ([1.0, 0.0], [0.0, 1.0], np.nan, "non-finite"),
            ([1.0, 0.0], [0.0, np.inf], 1.0, "non-finite"),
        ],
    )
    def test_violation_raises(self, x, y, objective, match):
        with pytest.raises(NumericalBreakdownError, match=match):
            _certify(self.LP, np.array(x), np.array(y), objective)

    @pytest.mark.parametrize(
        "x, y, objective",
        [
            ([1.0, 0.0], [0.0, 1.0], 1.0),
            ([1.0, 5e-10], [0.0, 1.0], 1.0),
            ([1.0, 0.0], [5e-10, 1.0], 1.0),
            ([1.0 + 5e-10, -5e-10], [0.0, 1.0], 1.0),
            ([1.0, 0.0], [-5e-10, 1.0], 1.0),
            ([1.0, 0.0], [0.0, 1.0], 1.0 + 5e-9),
        ],
    )
    def test_within_tolerance_passes(self, x, y, objective):
        _certify(self.LP, np.array(x), np.array(y), objective)


class TestLevelProgramsAgainstReference:
    """Every LP the program builds, against scipy's HiGHS on the same data.

    Besides the objective, the dual of the sum-mu = 1 row must match HiGHS's
    equality marginal, and the returned measure must attain the optimum:
    its worst potential on L for the roof, its best for the floor, their
    spread for both.
    """

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("roof, floor", [(True, False), (False, True), (True, True)])
    def test_objective_matches_highs(self, seed, roof, floor):
        linprog = pytest.importorskip("scipy.optimize").linprog
        space = instance_space(seed)
        nested, general = instance_pairs(space.m, seed)
        for pair in (SubsetPair.full(space.m), nested, general):
            lp = level_program(space, pair, roof, floor)
            le = np.array([s == "<=" for s in lp.senses])
            sol = solve_lp(lp)
            ref = linprog(lp.c, A_ub=lp.A[le], b_ub=lp.b[le], A_eq=lp.A[~le],
                          b_eq=lp.b[~le], bounds=(0.0, None), method="highs")
            assert ref.status == 0, pair
            assert sol.objective == pytest.approx(ref.fun, abs=1e-9), pair
            assert sol.y[-1] == pytest.approx(ref.eqlin.marginals[0], abs=1e-9), pair
            pot = space.kernel[np.ix_(pair.L, pair.H)] @ sol.x[:len(pair.H)]
            attained = (pot.max() if roof else 0.0) - (pot.min() if floor else 0.0)
            assert attained == pytest.approx(ref.fun, abs=1e-9), pair


class TestQuadraticRoutes:
    def test_concave_certified_max_on_complete_graph(self, k3):
        res = maximize_quadratic_on_simplex(k3, range(3))
        assert res.certificate == "global_concave_max"
        assert res.gap <= 1e-10
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert res.measure.weights == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_convex_certified_min_on_gram_kernel(self):
        # rank-one product kernel: energy = (sum_i x_i mu_i)^2, minimized at x=1
        x = np.array([1.0, 2.0, 3.0, 4.0])
        space = KernelSpace("gram", ("a", "b", "c", "d"), np.outer(x, x), False)
        res = minimize_quadratic_on_simplex(space, range(4))
        assert res.certificate == "global_convex"
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.measure.weights[0] == pytest.approx(1.0, abs=1e-6)

    def test_indefinite_enumeration(self):
        # single strong pair: energy 2*mu0*mu1*1, indefinite on sum-zero vectors
        k = np.zeros((3, 3))
        k[0, 1] = k[1, 0] = 1.0
        space = KernelSpace("pair", ("a", "b", "c"), k, False)
        top = maximize_quadratic_on_simplex(space, range(3))
        assert top.certificate == "enumerated_exact"
        assert top.gap == 0.0
        assert top.value == pytest.approx(0.5, abs=1e-12)
        assert sorted(top.measure.support()) == [0, 1]
        bottom = minimize_quadratic_on_simplex(space, range(3))
        assert bottom.certificate == "enumerated_exact"
        assert bottom.value == pytest.approx(0.0, abs=1e-12)

    def test_indefinite_heuristic_above_enumeration_limit(self):
        # 8 disjoint strong pairs on 16 points; global max is 1/2 on any pair
        m = 16
        k = np.zeros((m, m))
        for i in range(0, m, 2):
            k[i, i + 1] = k[i + 1, i] = 1.0
        space = KernelSpace("pairs", tuple(map(str, range(m))), k, False)
        res = maximize_quadratic_on_simplex(space, range(m))
        assert res.certificate == "heuristic_bound"
        assert any("multistart" in n for n in res.notes)
        # a heuristic value is attained by a feasible measure, so it never
        # exceeds the true maximum; here it should also essentially reach it
        assert res.value <= 0.5 + 1e-9
        assert res.value >= 0.45

    def test_enumeration_agrees_with_certified_gradient(self):
        for space in (generate(hypercube(2)), generate(random_graph(5, 0.7, 8))):
            grad = maximize_quadratic_on_simplex(space, range(space.m))
            w, val, _ = _enumerate_supports(space.kernel, -1.0)
            assert grad.value == pytest.approx(val, abs=1e-8)

    def test_value_equals_energy_of_point(self, k3, instances100):
        for space in (k3, instances100[4]):
            for res in (
                maximize_quadratic_on_simplex(space, range(space.m)),
                minimize_quadratic_on_simplex(space, range(space.m)),
            ):
                direct = float(res.measure.weights @ space.kernel @ res.measure.weights)
                assert res.value == direct  # exact: value recomputed from the measure

    def test_subset_support_respected(self, instances100):
        space = instances100[9]
        H = (0, 2, 4)
        res = maximize_quadratic_on_simplex(space, H)
        assert set(res.measure.support()) <= set(H)
        outside = [i for i in range(space.m) if i not in H]
        assert np.all(res.measure.weights[outside] == 0.0)

    def test_no_dust_atoms(self, instances100):
        for space in instances100[:10]:
            res = maximize_quadratic_on_simplex(space, range(space.m))
            w = res.measure.weights
            assert np.all((w == 0.0) | (w > 1e-12))

    def test_errors(self, k3):
        with pytest.raises(EmptySubsetError):
            maximize_quadratic_on_simplex(k3, [])
        with pytest.raises(IndexOutOfRangeError):
            minimize_quadratic_on_simplex(k3, [0, 7])

    def test_definiteness_reads_the_kernel_of_every_point(self, monkeypatch):
        # every point: the kernel itself, no m x m copy; a proper subset: its block
        seen = []

        def spy(matrix):
            seen.append(matrix)
            return sum_zero_definiteness(matrix)

        monkeypatch.setattr(optimize_mod, "sum_zero_definiteness", spy)
        space = generate(random_graph(9, 0.5, 3))
        every = optimize_mod.subset_definiteness(space, tuple(range(9)))
        part = optimize_mod.subset_definiteness(space, (1, 4, 6, 8))
        assert seen[0] is space.kernel
        assert np.array_equal(seen[1], space.kernel[np.ix_((1, 4, 6, 8), (1, 4, 6, 8))])
        assert every == sum_zero_definiteness(space.kernel.copy())
        assert part == sum_zero_definiteness(seen[1].copy())


class TestQuadraticAgainstGrid:
    @settings(max_examples=8)
    @given(seed=st.integers(0, 40))
    def test_extrema_bracket_dense_grid(self, seed):
        space = generate(random_graph(5, 0.6, seed))
        denom = 24
        lo_grid, hi_grid = grid_energy(space.kernel, range(5), denom=denom)
        top = maximize_quadratic_on_simplex(space, range(5))
        bottom = minimize_quadratic_on_simplex(space, range(5))
        # every grid point is feasible, so the solver can only do better
        assert top.value >= hi_grid - 1e-9
        assert bottom.value <= lo_grid + 1e-9
        # and a grid this fine cannot be far from the true extrema
        assert top.value <= hi_grid + 5.0 / denom
        assert bottom.value >= lo_grid - 5.0 / denom


def _twin(kernel: np.ndarray, distance: float = 0.0) -> np.ndarray:
    """The kernel with point 1 replaced by a copy of point 0, whose row and
    column are then scaled by 1 + ``distance``: a near-twin at that
    relative distance, and an exact twin at 0."""
    k = kernel.copy()
    k[1] = k[0] * (1.0 + distance)
    k[:, 1] = k[:, 0] * (1.0 + distance)
    return k


def _flat_pair(kernel: np.ndarray, distance: float) -> np.ndarray:
    """The kernel with the block of {0, 1} set to K[0, 0], up to a relative
    ``distance`` on K[1, 1]: that support's KKT system is singular, or
    nearly so, while points 0 and 1 still differ towards the others."""
    k = kernel.copy()
    k[0, 1] = k[1, 0] = k[0, 0]
    k[1, 1] = k[0, 0] * (1.0 + distance)
    return k


def _boundary_kernel(weight: float) -> np.ndarray:
    """Three points whose support {0, 1} solves to weights (weight, 1 - weight)."""
    # M_S = [[0, 1], [1, x]] gives w_0 = (x - 1) / (x - 2); solve for x
    x = (1.0 - 2.0 * weight) / (1.0 - weight)
    return np.array([[0.0, 1.0, 2.0], [1.0, x, 2.0], [2.0, 2.0, 0.0]])


def _differential_kernels():
    # the loop takes about 0.7 s at 14 points, so the largest sizes get one
    # seed and only the plain kernel
    for m in range(3, QP_ENUM_LIMIT + 1):
        for seed in (0, 1, 2) if m <= 11 else (0,):
            k = generate(random_graph(m, 0.5, seed)).kernel
            yield f"random({m},{seed})", k
            if m <= 12:
                yield f"random({m},{seed})*1e6", k * 1e6
                yield f"random({m},{seed})*1e-6", k * 1e-6
                yield f"dual random({m},{seed})", 2.0 * k.max() - k
    for seed in range(200):
        space = instance_space(seed)
        yield f"instance {seed}", space.kernel
    rng = np.random.default_rng(5)
    for m in range(3, 11):
        a = rng.normal(size=(m, m))
        yield f"symmetric({m})", a + a.T
    # every support with both twins is singular, or ill-conditioned on a
    # near-twin, and so is every bordered prefix of its extensions
    base = generate(random_graph(14, 0.5, 3)).kernel
    yield "twin random(14,3)", _twin(base)
    for distance in (1e-8, 1e-12):
        yield f"near-twin {distance} random(14,3)", _twin(base, distance)
    # regular supports whose bordered prefix {0, 1} is singular or nearly so
    rng = np.random.default_rng(1)
    for m in (8, 10):
        a = rng.random((m, m))
        for distance in (0.0, 1e-14, 1e-10):
            yield f"flat pair {distance} ({m})", _flat_pair(a + a.T, distance)
    # supports whose lowest weight falls between the filter's two thresholds
    for weight in (-0.3e-10, -0.7e-10, -1.5e-10, -3e-10):
        yield f"boundary {weight}", _boundary_kernel(weight)


class TestBatchedEnumeration:
    """The stacked enumeration against the one-support-at-a-time loop."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_equals_loop_bit_for_bit(self, sign):
        for name, kernel in _differential_kernels():
            w, value, notes = _enumerate_supports(kernel, sign)
            w_ref, value_ref, notes_ref = enumerate_supports_loop(kernel, sign)
            assert w.tobytes() == w_ref.tobytes(), name
            assert value == value_ref, name
            assert notes == notes_ref, name

    def test_boundary_supports_follow_the_loop(self):
        # {0, 1} and {0, 1, 2} solve to a lowest weight between the stacked
        # filter's thresholds, near _polish_support's own bound -1e-10: kept
        # at -0.7e-10 and -0.47e-10, dropped at -1.5e-10 and -1.0000001e-10;
        # the last is within the bordered solution's error of the bound, so
        # stacked LU and a replay decide it
        assert _enumerate_supports(_boundary_kernel(-0.7e-10), 1.0)[2] == ()
        assert _enumerate_supports(_boundary_kernel(-1.5e-10), 1.0)[2] == (
            "skipped 2 singular or infeasible support systems",)

    def test_zero_diagonal_minimum_is_the_last_dirac(self):
        # every Dirac has energy 0; the tie rule keeps the lexicographically
        # smallest weight vector, the Dirac at the last point of H
        checked = 0
        for m in range(3, QP_ENUM_LIMIT + 1):
            for seed in range(4):
                space = generate(random_graph(m, 0.5, seed))
                if sum_zero_definiteness(space.kernel)["nsd"]:
                    continue  # of negative type
                res = minimize_quadratic_on_simplex(space, range(m))
                assert res.value == 0.0
                assert res.certificate == "enumerated_exact"
                assert res.measure.support() == (m - 1,)
                checked += 1
        assert checked >= 20

    def test_exact_tie_in_the_maximum(self):
        # the pairs {0, 1} and {2, 3} both reach 3/2; {0, 1} comes first,
        # but (0, 0, 1/2, 1/2) is the lexicographically smaller weight vector
        k = np.ones((4, 4)) - np.eye(4)
        k[0, 1] = k[1, 0] = k[2, 3] = k[3, 2] = 3.0
        space = KernelSpace("tie", ("a", "b", "c", "d"), k, False)
        res = maximize_quadratic_on_simplex(space, range(4))
        assert res.certificate == "enumerated_exact"
        assert res.value == 1.5
        assert res.measure.weights.tolist() == [0.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_singular_chunks_cost_two_stacked_solves(self, monkeypatch, sign):
        kernel = _twin(generate(random_graph(14, 0.5, 3)).kernel)
        h = kernel.shape[0]
        calls = {"stacked": 0, "single": 0, "slogdet": 0}
        solve, slogdet = np.linalg.solve, np.linalg.slogdet

        def spy_solve(a, b):
            calls["stacked" if a.ndim == 3 else "single"] += 1
            return solve(a, b)

        def spy_slogdet(a):
            calls["slogdet"] += 1
            return slogdet(a)

        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        monkeypatch.setattr(np.linalg, "slogdet", spy_slogdet)
        _, _, notes = _enumerate_supports(kernel, sign)
        chunks = sum(-(-math.comb(h, size) // _ENUM_CHUNK) for size in range(1, h + 1))
        assert notes  # the twin supports are singular
        assert 1 <= calls["slogdet"] <= chunks
        assert calls["stacked"] <= 2 * chunks
        # one-system solves only replay the near-best supports: at most the
        # h tied Diracs of the minimum
        assert calls["single"] <= h

    def test_lu_takes_only_the_supports_bordering_cannot_decide(self):
        # random(14, 0.5, 3) is decided from bordered solutions alone; on its
        # twin, each of the 2^12 supports that hold both twins is singular,
        # and stacked LU decides it
        plain = generate(random_graph(14, 0.5, 3)).kernel
        for kernel, fallback in ((plain, 0), (_twin(plain), 2 ** 12)):
            swept = optimize_mod._support_pass(kernel)
            assert swept.visited == 2 ** 14 - 1
            assert swept.fallback == fallback
            for sign in (1.0, -1.0):
                w, value, notes = _enumerate_supports(kernel, sign, swept)
                w_ref, value_ref, notes_ref = enumerate_supports_loop(kernel, sign)
                assert w.tobytes() == w_ref.tobytes()
                assert value == value_ref
                assert notes == notes_ref

    def test_support_pass_memory_is_bounded(self):
        # the pass keeps two levels of O(k) vectors a support and one block
        # of at most _ENUM_CHUNK supports in flight: a 14-point pass peaks
        # near 1.35 MiB, where forming every inverse of a level took 7 MiB
        kernel = generate(random_graph(14, 0.5, 3)).kernel
        optimize_mod._support_pass(kernel)
        tracemalloc.start()
        try:
            optimize_mod._support_pass(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 2 ** 20


def _disjoint_pairs(m: int = 16) -> KernelSpace:
    """m / 2 disjoint strong pairs: indefinite, above the enumeration limit."""
    k = np.zeros((m, m))
    for i in range(0, m, 2):
        k[i, i + 1] = k[i + 1, i] = 1.0
    return KernelSpace("pairs", tuple(map(str, range(m))), k, False)


def _unlinked_dual(m: int, seed: int) -> KernelSpace:
    """C - K of a random graph, a space that solves on its own."""
    return dual_kernel(generate(random_graph(m, 0.5, seed)))[0]


def _positive_diagonal(space: KernelSpace, shift: float | None = None) -> KernelSpace:
    """K + shift I, by default with shift d / 2, d the least off-diagonal
    entry of a metric K.

    A metric's minimal energy is 0 at a Dirac mass and takes no route.  At
    the default shift every Dirac mass is still stationary, as on K, but
    the diagonal is positive, so the minimum runs the route K's once did.
    """
    k = space.kernel
    if shift is None:
        shift = 0.5 * k[~np.eye(space.m, dtype=bool)].min()
    return KernelSpace(space.name, space.points, k + shift * np.eye(space.m), False)


# (name, fresh space, maximize): every case runs the multistart; a "w" or
# "min" case minimizes the metric's _positive_diagonal.  The grid's shift is
# 1/2: at the default 1/512 its 257 Dirac masses tie at one value, and the
# block loop and the start-by-start runs, whose products round differently,
# end at different ones.
_MULTISTARTS = [
    ("circle(256) w", lambda: _positive_diagonal(generate(circle(256))), False),
    ("grid(257) w", lambda: _positive_diagonal(generate(interval_grid(257)), 0.5), False),
    ("random(40,0.5,4) max", lambda: generate(random_graph(40, 0.5, 4)), True),
    ("random(40,0.5,4) min", lambda: _positive_diagonal(generate(random_graph(40, 0.5, 4))),
     False),
    ("random(100,0.05,0) max", lambda: generate(random_graph(100, 0.05, 0)), True),
    ("random(100,0.05,0) min", lambda: _positive_diagonal(generate(random_graph(100, 0.05, 0))),
     False),
    ("hypercube(5) w", lambda: _positive_diagonal(generate(hypercube(5))), False),
    ("disjoint pairs max", _disjoint_pairs, True),
    ("unlinked C - K of random(40) min", lambda: _unlinked_dual(40, 4), False),
]


# the multistart's block loop against one single-start run per column
_BLOCK_CASES = _MULTISTARTS + [
    (f"random({m},0.5,0) max", lambda m=m: generate(random_graph(m, 0.5, 0)), True)
    for m in (60, 100, 200)
] + [
    (f"random({m},0.5,0) min", lambda m=m: _positive_diagonal(generate(random_graph(m, 0.5, 0))),
     False)
    for m in (60, 100, 200)
]


def _extremum(space: KernelSpace, maximize: bool, **kw):
    solve = maximize_quadratic_on_simplex if maximize else minimize_quadratic_on_simplex
    return solve(space, range(space.m), **kw)


def _start_by_start(M, gap_tol, max_iter, polish, starts):
    """The block loop's contract, one ``away_fw_loop`` run per start."""
    return [away_fw_loop(M, gap_tol, max_iter, polish, start) for start in starts]


def _block_and_by_start(monkeypatch, space: KernelSpace, maximize: bool, **kw):
    """The columns of the extremum's block loop and the start-by-start runs."""
    runs = []
    real = optimize_mod._away_fw_block

    def spy(M, gap_tol, max_iter, polish, starts):
        runs.append(real(M, gap_tol, max_iter, polish, starts))
        runs.append(_start_by_start(M, gap_tol, max_iter, polish, starts))
        return runs[0]

    monkeypatch.setattr(optimize_mod, "_away_fw_block", spy)
    _extremum(space, maximize, **kw)
    monkeypatch.setattr(optimize_mod, "_away_fw_block", real)
    return runs


def _assert_same_columns(block, by_start):
    """Each column leaves when its own run returns, at its run's point."""
    assert [it for _, _, it in block] == [it for _, _, it in by_start]
    for (v, gap, _), (want_v, want_gap, _) in zip(block, by_start):
        # an unpolished iterate may differ in its last bits
        assert v == pytest.approx(want_v, abs=1e-14)
        assert gap == pytest.approx(want_gap, abs=1e-14)


def _assert_same_result(a, b):
    assert a.certificate == b.certificate == "heuristic_bound"
    assert a.value == b.value
    assert a.measure.weights.tobytes() == b.measure.weights.tobytes()
    assert a.gap == b.gap
    assert a.notes == b.notes
    assert a.fw_iterations == b.fw_iterations
    assert a.kkt_solves == b.kkt_solves


class TestSharedPolish:
    """The starts of one multistart share their support polishes."""

    @pytest.mark.parametrize("name, make, maximize", _MULTISTARTS,
                             ids=[case[0] for case in _MULTISTARTS])
    def test_equals_the_per_start_path(self, monkeypatch, name, make, maximize):
        shared = _extremum(make(), maximize)
        monkeypatch.setattr(optimize_mod, "_shared_polish", lambda polish: polish)
        per_start = _extremum(make(), maximize)
        assert shared.certificate == per_start.certificate == "heuristic_bound"
        assert shared.value == per_start.value
        assert shared.measure.weights.tobytes() == per_start.measure.weights.tobytes()
        assert shared.gap == per_start.gap
        assert shared.notes == per_start.notes
        # the same Frank-Wolfe path, with fewer KKT solves
        assert shared.fw_iterations == per_start.fw_iterations
        assert 1 <= shared.kkt_solves <= per_start.kkt_solves

    def test_circle_w_solves_one_kkt_system(self, monkeypatch):
        space = _positive_diagonal(generate(circle(256)))
        assert minimize_quadratic_on_simplex(space, range(256)).kkt_solves == 1
        monkeypatch.setattr(optimize_mod, "_shared_polish", lambda polish: polish)
        fresh = _positive_diagonal(generate(circle(256)))
        assert minimize_quadratic_on_simplex(fresh, range(256)).kkt_solves == 16

    def test_shared_weights_are_read_only(self, monkeypatch):
        polishes = []
        real = optimize_mod._away_fw_block

        def spy(M, gap_tol, max_iter, polish, starts):
            polishes.append((polish, len(starts)))
            return real(M, gap_tol, max_iter, polish, starts)

        monkeypatch.setattr(optimize_mod, "_away_fw_block", spy)
        _extremum(_disjoint_pairs(), True)
        # one block loop, whose 32 columns share one polish
        assert len(polishes) == 1 and polishes[0][1] == 32
        polish = polishes[0][0]
        w = polish(np.array([0, 1]))
        assert w.tolist() == [0.5, 0.5] + [0.0] * 14
        assert polish(np.array([0, 1])) is w
        with pytest.raises(ValueError):
            np.clip(w, 0.0, None, out=w)
        with pytest.raises(ValueError):
            w[0] = 1.0

    @pytest.mark.parametrize("name, make, maximize", _BLOCK_CASES,
                             ids=[case[0] for case in _BLOCK_CASES])
    def test_block_equals_start_by_start(self, monkeypatch, name, make, maximize):
        block = _extremum(make(), maximize)
        monkeypatch.setattr(optimize_mod, "_away_fw_block", _start_by_start)
        _assert_same_result(block, _extremum(make(), maximize))

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("gap_tol", [1e-4, 1e-6, 1e-8])
    def test_columns_leave_when_their_own_runs_return(self, monkeypatch, gap_tol, maximize):
        # looser tolerances close gaps between the polishes
        space = generate(random_graph(60, 0.5, 1))
        if not maximize:
            space = _positive_diagonal(space)
        block, by_start = _block_and_by_start(monkeypatch, space, maximize, gap_tol=gap_tol)
        _assert_same_columns(block, by_start)

    def test_max_iter_ends_with_the_final_polish(self, monkeypatch):
        space = generate(random_graph(40, 0.5, 4))
        block, by_start = _block_and_by_start(monkeypatch, space, True, max_iter=5)
        # no gap closes in 5 steps: every column ends with the final polish
        assert [it for _, _, it in block] == [5] * 32
        _assert_same_columns(block, by_start)
        chosen = _extremum(space, True, max_iter=5)  # memoized by the run above
        monkeypatch.setattr(optimize_mod, "_away_fw_block", _start_by_start)
        _assert_same_result(chosen, _extremum(generate(random_graph(40, 0.5, 4)), True,
                                              max_iter=5))

    def test_zero_step_leaves_the_block(self):
        # on M = I the uniform point is optimal and its Frank-Wolfe slope is
        # exactly 0; with a negative tolerance only the zero step stops it
        h = 16
        M = np.eye(h)
        starts = [np.full(h, 1.0 / h), np.eye(h)[3]]

        def polish(support):
            return optimize_mod._polish_support(M, support, h)

        block = optimize_mod._away_fw_block(M, -1.0, 4, polish, starts)
        assert [it for _, _, it in block] == [0, 4]
        assert block[0][0].tobytes() == starts[0].tobytes() and block[0][1] == 0.0
        for (v, gap, it), (want_v, want_gap, want_it) in zip(
                block, _start_by_start(M, -1.0, 4, polish, starts)):
            assert (v.tobytes(), gap, it) == (want_v.tobytes(), want_gap, want_it)

    def test_every_column_leaves_at_iteration_zero(self, monkeypatch):
        runs = []
        real = optimize_mod._away_fw_block

        def spy(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(optimize_mod, "_away_fw_block", spy)
        res = minimize_quadratic_on_simplex(_positive_diagonal(generate(circle(256))), range(256))
        # the uniform start and the Diracs close their gaps, and the
        # Dirichlet starts close theirs with one shared polish
        assert len(runs) == 1 and [it for _, _, it in runs[0]] == [0] * 32
        assert res.fw_iterations == 0 and res.kkt_solves == 1


def _negative_type_solves():
    """The two certified solves of ``dual_route_check`` on each suite instance
    of negative type: the maximal energy, and the minimum of C - K.
    Returns (name, space, maximize) triples."""
    cases = []
    for seed in range(100):
        space = instance_space(seed)
        if not sum_zero_definiteness(space.kernel)["nsd"]:
            continue
        dual = dual_kernel(space)[0]
        cases += [(f"seed {seed} max", space, True), (f"seed {seed} C - K min", dual, False)]
    return cases


@pytest.fixture(scope="module")
def repolished():
    """(name, space, maximize, result) of every negative-type suite solve."""
    return [(name, space, maximize, _extremum(space, maximize))
            for name, space, maximize in _negative_type_solves()]


class TestRepolish:
    """The certified route's polish drops atoms of negative weight and solves again."""

    def test_all_but_three_end_at_iteration_zero(self, repolished):
        certs = {True: "global_concave_max", False: "global_convex"}
        assert len(repolished) > 50
        for _, _, maximize, res in repolished:
            assert res.certificate == certs[maximize] and res.gap <= QP_GAP_TOL
        # the few open cases still certify through Frank-Wolfe steps
        open_cases = [name for name, _, _, res in repolished if res.fw_iterations > 0]
        assert 1 <= len(open_cases) <= 3

    def test_values_match_the_reference_loop(self, repolished):
        for name, space, maximize, res in repolished:
            M = -space.kernel if maximize else space.kernel
            h = space.m

            def polish(support):
                return optimize_mod._polish_support(M, support, h)

            v, gap, _ = away_fw_loop(M, QP_GAP_TOL, optimize_mod.QP_MAX_ITER, polish)
            assert gap <= QP_GAP_TOL, name
            want = float(v @ space.kernel @ v)
            tol = 1e-12 * (1.0 + space.kernel.max())
            assert res.value == pytest.approx(want, rel=0, abs=tol), name

    def test_kkt_solves_counts_every_solve(self, monkeypatch):
        calls = []
        real = optimize_mod._kkt_weights

        def spy(M, support):
            calls.append(support)
            return real(M, support)

        monkeypatch.setattr(optimize_mod, "_kkt_weights", spy)
        resolved = 0
        for _, space, maximize in _negative_type_solves():
            del calls[:]
            res = _extremum(space, maximize)
            assert res.kkt_solves == len(calls)
            resolved += res.fw_iterations == 0 and res.kkt_solves > 1
        # the drop loop's solves are counted with the first
        assert resolved > 0

    def test_rounding_weights_are_snapped(self):
        # on 1000 |x - y| over 300 points of [0, 1] the first polish finds
        # (delta_0 + delta_299) / 2, but with interior weights of about 1e-11
        # whose gap exceeds QP_GAP_TOL; dropping them closes it at once
        x = np.linspace(0.0, 1.0, 300)
        space = validate_kernel(1000.0 * np.abs(x[:, None] - x[None, :]), name="scaled")
        res = maximize_quadratic_on_simplex(space, range(300))
        assert res.certificate == "global_concave_max"
        assert res.kkt_solves <= 2 and res.fw_iterations == 0
        assert res.value == pytest.approx(500.0, rel=0, abs=1e-9)
