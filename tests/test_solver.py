"""Tests for the ML-enhanced CG solver (math/cs algorithm motif)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.science.solver import (
    ConjugateGradient,
    LearnedDeflation,
    VariableCoefficientPoisson,
    solver_study,
)


@pytest.fixture(scope="module")
def problem():
    return VariableCoefficientPoisson(16, seed=0)


@pytest.fixture(scope="module")
def solver(problem):
    return ConjugateGradient(problem.matrix)


class TestPoissonSystem:
    def test_matrix_is_symmetric(self, problem):
        assert np.allclose(problem.matrix, problem.matrix.T)

    def test_matrix_is_positive_definite(self, problem):
        eigenvalues = np.linalg.eigvalsh(problem.matrix)
        assert eigenvalues.min() > 0

    def test_coefficients_positive(self, problem):
        assert (problem.coefficients > 0).all()

    def test_direct_solve_exact(self, problem):
        b = problem.smooth_rhs()
        x = problem.direct_solve(b)
        assert np.allclose(problem.matrix @ x, b)

    def test_heterogeneous_field(self, problem):
        # high-contrast medium: the coefficient spans at least a decade
        assert problem.coefficients.max() / problem.coefficients.min() > 3

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            VariableCoefficientPoisson(2)


class TestConjugateGradient:
    def test_converges_to_true_solution(self, problem, solver):
        b = problem.smooth_rhs()
        result = solver.solve(b)
        assert result.converged
        assert np.allclose(result.x, problem.direct_solve(b), atol=1e-5)

    def test_residual_below_tolerance(self, problem, solver):
        result = solver.solve(problem.smooth_rhs())
        assert result.relative_residual < solver.tol

    def test_jacobi_reduces_iterations(self, problem, solver):
        b = problem.smooth_rhs()
        plain = solver.solve(b).iterations
        jacobi = solver.solve(b, jacobi=True).iterations
        assert jacobi <= plain

    def test_warm_start_with_exact_solution_is_free(self, problem, solver):
        b = problem.smooth_rhs()
        exact = problem.direct_solve(b)
        result = solver.solve(b, x0=exact)
        assert result.iterations <= 1

    def test_zero_rhs(self, solver):
        result = solver.solve(np.zeros(solver.A.shape[0]))
        assert result.converged
        assert result.iterations == 0

    def test_iteration_cap_reported(self, problem):
        capped = ConjugateGradient(problem.matrix, tol=1e-14, max_iterations=3)
        result = capped.solve(problem.smooth_rhs())
        assert not result.converged
        assert result.iterations == 3

    def test_dimension_mismatch_rejected(self, solver):
        with pytest.raises(ConfigurationError):
            solver.solve(np.zeros(7))

    def test_nonsquare_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            ConjugateGradient(np.zeros((3, 4)))


class TestLearnedDeflation:
    @pytest.fixture(scope="class")
    def fitted(self, problem, solver):
        snapshots = np.array(
            [problem.direct_solve(problem.smooth_rhs()) for _ in range(80)]
        )
        deflation = LearnedDeflation(solver)
        k = deflation.fit(snapshots)
        return deflation, k

    def test_learned_dimension_reasonable(self, fitted):
        _, k = fitted
        assert 1 <= k <= 40

    def test_deflated_solution_is_exact(self, problem, fitted):
        deflation, _ = fitted
        b = problem.smooth_rhs()
        result = deflation.solve(b)
        assert result.converged
        # the ML component must not compromise accuracy (Section VI-A)
        assert np.allclose(result.x, problem.direct_solve(b), atol=1e-5)

    def test_deflation_cuts_iterations(self, problem, solver, fitted):
        deflation, _ = fitted
        plain_iters, deflated_iters = [], []
        for _ in range(5):
            b = problem.smooth_rhs()
            plain_iters.append(solver.solve(b).iterations)
            deflated_iters.append(deflation.solve(b).iterations)
        assert np.mean(deflated_iters) < 0.7 * np.mean(plain_iters)

    def test_solve_before_fit_rejected(self, solver):
        with pytest.raises(ConvergenceError):
            LearnedDeflation(solver).solve(np.zeros(solver.A.shape[0]))

    def test_too_few_snapshots_rejected(self, solver):
        with pytest.raises(ConfigurationError):
            LearnedDeflation(solver).fit(np.zeros((2, solver.A.shape[0])))

    def test_variance_target_controls_dimension(self, problem, solver):
        snapshots = np.array(
            [problem.direct_solve(problem.smooth_rhs()) for _ in range(80)]
        )
        loose = LearnedDeflation(solver, variance_target=0.9)
        tight = LearnedDeflation(solver, variance_target=0.9999)
        assert loose.fit(snapshots) <= tight.fit(snapshots)


class TestSolverStudy:
    def test_ordering_plain_jacobi_deflated(self):
        results = solver_study(n=16, n_snapshots=60, n_solves=5, seed=1)
        assert results["deflated"] < results["jacobi"] <= results["plain"] + 1
        assert results["deflated"] < 0.7 * results["plain"]

    def test_learned_deflation_on_400_unknowns(self):
        results = solver_study(n=20, n_snapshots=100, n_solves=8, seed=0)
        assert results["deflated"] < 0.6 * results["plain"]
        assert results["deflated"] < results["jacobi"]
