"""LP solver certificates and quadratic optimization on the simplex."""
import math

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
    generate,
    hypercube,
    random_graph,
)
from rdv.minimax import level_program
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
from rdv.suites import instance_pairs, instance_space

from oracles import enumerate_supports_loop, grid_energy


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
    """``LpSolution`` counts its pivots and the safe-mode retry."""

    FORMS = [(True, False), (False, True), (True, True)]

    def test_level_pivots_pinned(self):
        # From the Dirac vertex: 951 pivots.  Phase 1 plus phase 2 from the
        # slack-and-artificial start took 723 + 1020 = 1743.
        total, retried = 0, False
        for seed in range(100):
            space = instance_space(seed)
            for roof, floor in self.FORMS:
                sol = solve_lp(level_program(space, SubsetPair.full(space.m), roof, floor))
                total += sol.pivots
                retried |= sol.retried
        assert total == 951
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
        assert retried.objective == pytest.approx(plain.objective, abs=1e-12)


class TestLpDuality:
    def test_dual_signs_and_strong_duality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, rows = 6, 4
            A = rng.normal(size=(rows, n))
            x0 = rng.dirichlet(np.ones(n))
            b = np.abs(A @ x0) + rng.uniform(0.0, 1.0, size=rows)
            c = rng.normal(size=n)
            sol = solve_lp(_boxed(c, A, b, 2.0))
            # feasibility of the returned vertex
            assert np.all(A @ sol.x <= b + 1e-9)
            assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 2.0 + 1e-9)
            # dual signs for <= rows of a minimization, box rows included
            assert np.all(sol.y <= 1e-9)

    def test_agrees_with_reference_solver(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 8))
            rows = int(rng.integers(1, 6))
            A = rng.normal(size=(rows, n)).round(3)
            x0 = rng.dirichlet(np.ones(n))
            b = (np.abs(A @ x0) + rng.uniform(0.0, 1.0, size=rows)).round(3)
            c = rng.normal(size=n).round(3)
            sol = solve_lp(_boxed(c, A, b, 1.5))
            ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0.0, 1.5)] * n, method="highs")
            assert ref.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"

    def test_equality_duals_match_reference(self):
        # two '=' rows and the box x <= 3, started from x0, x1 and the box
        # slacks: b is built from positive x0, x1 so that start is feasible
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(3, 7))
            A = rng.normal(size=(2, n)).round(3)
            b = (A[:, :2] @ rng.uniform(0.2, 1.0, size=2)).round(6)
            c = rng.normal(size=n).round(3)
            sol = solve_lp(_lp(c, np.vstack([A, np.eye(n)]), ("=", "=") + ("<=",) * n,
                               np.concatenate([b, np.full(n, 3.0)]),
                               (0, 1) + tuple(range(n, 2 * n))))
            ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0.0, 3.0)] * n, method="highs")
            assert ref.status == 0, f"trial {trial}"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            assert sol.y[:2] == pytest.approx(ref.eqlin.marginals, abs=1e-7), f"trial {trial}"
            assert sol.y[2:] == pytest.approx(ref.upper.marginals, abs=1e-7), f"trial {trial}"


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


def _twin(kernel: np.ndarray) -> np.ndarray:
    """The kernel with point 1 replaced by a copy of point 0."""
    k = kernel.copy()
    k[1] = k[0]
    k[:, 1] = k[:, 0]
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
                yield f"dual random({m},{seed})", 2.0 * k.max() - k
    for seed in range(200):
        space = instance_space(seed)
        yield f"instance {seed}", space.kernel
    rng = np.random.default_rng(5)
    for m in range(3, 11):
        a = rng.normal(size=(m, m))
        yield f"symmetric({m})", a + a.T
    yield "twin random(14,3)", _twin(generate(random_graph(14, 0.5, 3)).kernel)
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
        # {0, 1} and {0, 1, 2} solve to a lowest weight between the filter's
        # thresholds, so _polish_support decides them: kept at -0.7e-10 and
        # -0.47e-10, dropped at -1.5e-10 and -1.0000001e-10 (its own bound
        # is -1e-10)
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
