"""Tests for the iterative solvers: gradient descent and GMRES."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.gradient import FixedStepGradient, gradient_descent
from repro.linalg.gmres import gmres
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem


# ----------------------------------------------------------------------
# fixed-step gradient descent (Eq. 4)
# ----------------------------------------------------------------------
def _problem(n=120, dominance=0.7, seed=1, **kw):
    return SparseLinearProblem(
        SparseLinearConfig(n=n, n_diagonals=8, dominance=dominance, seed=seed, **kw)
    )


def test_gradient_descent_converges_to_true_solution():
    p = _problem()
    result = p.solve_sequential(eps=1e-10)
    assert result.converged
    assert p.solution_error(result.x) < 1e-8


def test_gradient_descent_gamma_one_is_jacobi():
    """gamma=1 must reproduce the classic Jacobi update exactly."""
    p = _problem(n=40)
    kernel = FixedStepGradient(p.matrix, p.b, gamma=1.0)
    x = np.random.default_rng(0).standard_normal(40)
    dense = p.matrix.to_dense()
    diag = np.diag(dense)
    off = dense - np.diag(diag)
    jacobi = (p.b - off @ x) / diag
    assert np.allclose(kernel.update_block(0, 40, x), jacobi)


def test_gradient_block_updates_compose_to_full_update():
    p = _problem(n=50)
    kernel = p.kernel
    x = np.random.default_rng(2).standard_normal(50)
    full = kernel.update_block(0, 50, x)
    pieces = [kernel.update_block(lo, hi, x) for lo, hi in [(0, 17), (17, 34), (34, 50)]]
    assert np.allclose(np.concatenate(pieces), full)


def test_gradient_descent_iteration_cap():
    p = _problem()
    result = p.solve_sequential(eps=1e-16, max_iterations=3)
    assert not result.converged
    assert result.iterations == 3


def test_gradient_rejects_bad_gamma():
    p = _problem(n=20)
    with pytest.raises(ValueError):
        FixedStepGradient(p.matrix, p.b, gamma=0.0)


def test_gradient_update_flops_positive_and_scales():
    p = _problem(n=60)
    f_small = p.kernel.update_flops(0, 10)
    f_large = p.kernel.update_flops(0, 60)
    assert 0 < f_small < f_large


def test_gamma_under_relaxation_still_converges():
    p = _problem(n=60)
    result = gradient_descent(p.matrix, p.b, gamma=0.8, eps=1e-9, max_iterations=50_000)
    assert result.converged
    assert p.solution_error(result.x) < 1e-6


def test_spectral_radius_below_one_by_construction():
    for dominance in (0.5, 0.8, 0.95):
        p = _problem(dominance=dominance, seed=3)
        assert p.spectral_bound() <= dominance + 1e-12


def test_negative_sign_structure_matches_bound():
    """All-negative off-diagonals make the Jacobi matrix non-negative,
    so its true spectral radius equals the row-sum bound."""
    p = _problem(n=80, dominance=0.9, sign_structure="negative")
    dense = p.matrix.to_dense()
    diag = np.diag(dense)
    b_mat = -(dense - np.diag(diag)) / diag[:, None]
    rho = max(abs(np.linalg.eigvals(b_mat)))
    # Boundary rows have truncated diagonals, so the Perron value sits a
    # little under the interior row-sum bound of 0.9.
    assert 0.8 <= rho <= 0.9 + 1e-9


def test_unknown_sign_structure_rejected():
    with pytest.raises(ValueError):
        _problem(sign_structure="sideways")


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_gradient_descent_always_converges_when_dominant(seed):
    p = _problem(n=40, dominance=0.6, seed=seed)
    result = p.solve_sequential(eps=1e-8)
    assert result.converged
    assert p.solution_error(result.x) < 1e-5


# ----------------------------------------------------------------------
# GMRES
# ----------------------------------------------------------------------
def test_gmres_solves_identity():
    b = np.array([1.0, 2.0, 3.0])
    result = gmres(lambda v: v, b)
    assert result.converged
    assert np.allclose(result.x, b)


def test_gmres_solves_dense_system():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    x_true = rng.standard_normal(20)
    b = a @ x_true
    result = gmres(lambda v: a @ v, b, tol=1e-12)
    assert result.converged
    assert np.allclose(result.x, x_true, atol=1e-8)


def test_gmres_zero_rhs_returns_zero():
    result = gmres(lambda v: 2 * v, np.zeros(5))
    assert result.converged and np.allclose(result.x, 0.0)


def test_gmres_restarting_still_converges():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
    b = rng.standard_normal(30)
    result = gmres(lambda v: a @ v, b, tol=1e-10, restart=5)
    assert result.converged
    assert result.restarts >= 1
    assert np.linalg.norm(a @ result.x - b) <= 1e-8 * np.linalg.norm(b) + 1e-12


def test_gmres_honours_x0():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    x_true = rng.standard_normal(10)
    b = a @ x_true
    result = gmres(lambda v: a @ v, b, x0=x_true.copy(), tol=1e-12)
    assert result.converged and result.iterations == 0


def test_gmres_iteration_cap():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    b = rng.standard_normal(40)
    result = gmres(lambda v: a @ v, b, tol=1e-14, max_iterations=2, restart=2)
    assert result.iterations <= 2


def test_gmres_validation():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.zeros(3), restart=0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.zeros(3), x0=np.zeros(4))


def test_gmres_matches_scipy():
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(11)
    a = rng.standard_normal((25, 25)) + 25 * np.eye(25)
    b = rng.standard_normal(25)
    ours = gmres(lambda v: a @ v, b, tol=1e-12)
    theirs = np.linalg.solve(a, b)
    assert np.allclose(ours.x, theirs, atol=1e-7)


@given(seed=st.integers(0, 500), n=st.integers(2, 25))
@settings(max_examples=25, deadline=None)
def test_gmres_property_diagonally_dominant(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    x_true = rng.standard_normal(n)
    b = a @ x_true
    result = gmres(lambda v: a @ v, b, tol=1e-11, max_iterations=500)
    assert result.converged
    assert np.allclose(result.x, x_true, atol=1e-6)


def _reference_gmres(apply_a, b, x0=None, tol=1e-10, atol=0.0, restart=30,
                     max_iterations=10_000):
    """Oracle: restarted GMRES with every scalar a numpy scalar in an array.

    The cycle body ``gmres_gen`` had before its Hessenberg/Givens
    recurrences moved to Python floats (``H``, ``cs``, ``sn``, ``g`` as
    ``np.empty`` arrays, ``V[i]`` sliced per inner product), written
    against a plain operator.  Not derived from the current code: the
    two must agree to the last bit or a rounding moved.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float, copy=True)
    b_norm = math.sqrt(float(np.dot(b, b)))
    target = max(tol * b_norm, atol)
    if b_norm == 0.0 and atol == 0.0:
        return np.zeros(n), 0, 0, 0.0, True
    total_inner = restarts = 0
    m = min(restart, n)
    while total_inner < max_iterations:
        r = b - apply_a(x)
        residual_norm = math.sqrt(float(np.dot(r, r)))
        if residual_norm <= target:
            return x, total_inner, restarts, residual_norm, True
        V = np.empty((m + 1, n))
        H = np.empty((m + 1, m))
        cs, sn, g = np.empty(m), np.empty(m), np.empty(m + 1)
        V[0] = r / residual_norm
        g[0] = residual_norm
        k_used = 0
        for k in range(m):
            if total_inner >= max_iterations:
                break
            w = np.array(apply_a(V[k]), dtype=float)
            total_inner += 1
            for i in range(k + 1):
                H[i, k] = float(np.dot(w, V[i]))
                w -= V[i] * H[i, k]
            H[k + 1, k] = math.sqrt(float(np.dot(w, w)))
            happy_breakdown = H[k + 1, k] <= 1e-300
            if not happy_breakdown:
                V[k + 1] = w / H[k + 1, k]
            h = H[: k + 2, k]
            for i in range(k):
                temp = cs[i] * h[i] + sn[i] * h[i + 1]
                h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
                h[i] = temp
            denom = float(np.hypot(h[k], h[k + 1]))
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = h[k] / denom
                sn[k] = h[k + 1] / denom
            h[k] = cs[k] * h[k] + sn[k] * h[k + 1]
            h[k + 1] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            residual_norm = abs(float(g[k + 1]))
            if residual_norm <= target or happy_breakdown:
                break
        if k_used > 0:
            y = np.zeros(k_used)
            for i in range(k_used - 1, -1, -1):
                y[i] = (g[i] - float(np.dot(H[i, i + 1 : k_used], y[i + 1 : k_used]))) / H[i, i]
            x = x + V[:k_used].T @ y
        restarts += 1
        if residual_norm <= target:
            r = b - apply_a(x)
            true_norm = math.sqrt(float(np.dot(r, r)))
            return x, total_inner, restarts, true_norm, true_norm <= max(target, 10 * target)
    r = b - apply_a(x)
    true_norm = math.sqrt(float(np.dot(r, r)))
    return x, total_inner, restarts, true_norm, true_norm <= target


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    matrix=st.sampled_from(["dominant", "non_normal", "diagonal"]),
    rhs=st.sampled_from(["random", "random", "zero", "eigenvector"]),
    restart=st.integers(1, 8),
    max_iterations=st.integers(1, 60),
    with_x0=st.booleans(),
    tol_exponent=st.integers(2, 14),
    shared_buffer=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_gmres_is_bit_identical_to_the_numpy_scalar_oracle(
    seed, n, matrix, rhs, restart, max_iterations, with_x0, tol_exponent,
    shared_buffer,
):
    """Python-float Hessenberg/Givens recurrences round exactly like the
    numpy-scalar ones: same ``x`` bytes and same counters on dominant,
    non-normal (upper-triangular) and diagonal systems, through multiple
    cycles, cycles cut short by ``max_iterations``, a given ``x0``,
    ``b = 0`` and ``b`` an eigenvector (happy breakdown at step one).
    ``shared_buffer``: the operator writes every product into one
    preallocated array and returns it, so ``gmres`` may hold no product
    across two operator calls (an operator that returns its own input
    is ``test_gmres_solves_identity``)."""
    rng = np.random.default_rng(seed)
    if matrix == "dominant":
        a = rng.standard_normal((n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    elif matrix == "non_normal":
        a = np.triu(rng.standard_normal((n, n)), 1) * 3.0 + np.diag(rng.uniform(1.0, 2.0, n))
    else:
        a = np.diag(rng.uniform(1.0, 2.0, n))
    if rhs == "zero":
        b = np.zeros(n)
    elif rhs == "eigenvector":
        b = np.zeros(n)
        b[0] = rng.uniform(0.5, 2.0)  # e_0 is an eigenvector of all three kinds
        if matrix == "dominant":
            a[1:, 0] = 0.0
    else:
        b = rng.standard_normal(n)
    kwargs = dict(
        x0=rng.standard_normal(n) if with_x0 else None,
        tol=10.0 ** -tol_exponent, restart=restart, max_iterations=max_iterations,
    )

    if shared_buffer:
        buffer = np.empty(n)

        def apply_a(v):
            buffer[:] = a @ v
            return buffer
    else:
        def apply_a(v):
            return a @ v

    ours = gmres(apply_a, b, **kwargs)
    x, iterations, restarts, residual_norm, converged = _reference_gmres(
        lambda v: a @ v, b, **kwargs
    )

    assert ours.x.tobytes() == x.tobytes()
    assert (ours.iterations, ours.restarts) == (iterations, restarts)
    assert ours.residual_norm == residual_norm
    assert ours.converged == converged
    if rhs == "eigenvector" and not with_x0:
        assert ours.iterations == 1  # the Krylov space is invariant at once
