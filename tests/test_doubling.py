"""The interval-to-circle reflection: embeddings, extensions, and the exact
spectral correspondence they are chosen to produce."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from common import (
    D,
    N,
    P,
    VARIABLE,
    circle_operator,
    copies,
    dense_eigenbasis,
    dense_modes,
    double_setup,
    extend_eigenfunction,
    extended_eigenbasis,
    mirror_flipped,
    problem,
    profiles,
    unit_pair,
)
from simulheat.doubling import build_double, extend_pair, lift_region, split, verify
from simulheat.grid import ControlRegion, region_from_intervals
from simulheat.spectral import l2_norm, mode_count, project, sup_norm


def test_embedding_maps_n2():
    grid = problem(2)
    ext = build_double(grid)
    assert ext.grid.n == 4
    assert ext.grid.length == 2.0
    # u + v on cells 0 and 1, v - u on the mirror copy, base cell 0 at cell 3
    U = extend_pair(ext, np.array([1.0, 2.0]), np.array([10.0, 20.0]))
    assert_array_equal(U, [11.0, 22.0, 18.0, 9.0])
    ru, rv = split(ext, np.array([1.0, 2.0, 3.0, 4.0]))
    assert_array_equal(ru, [-1.5, -0.5])
    assert_array_equal(rv, [2.5, 2.5])


def test_embeddings_cover_circle_disjointly():
    grid = problem(13)
    ext = build_double(grid)
    # split reads each circle cell at exactly one base cell, and each base
    # cell from exactly two circle cells, one on each copy
    u, v = split(ext, np.eye(26))
    assert_array_equal(np.abs(u), np.abs(v))
    assert_array_equal(np.count_nonzero(u, axis=1), np.ones(26))
    assert_array_equal(np.count_nonzero(u, axis=0), np.full(13, 2))
    assert_array_equal(np.sum(u, axis=0), np.zeros(13))


@given(st.integers(2, 4096), st.floats(1e-3, 1e3), profiles(), profiles(), st.integers(2, 48))
def test_reflected_coefficients(n, length, kappa, a, m):
    grid = problem(2, kappa=lambda x: np.where(x < 0.5, 1.0, 2.0))
    ext = build_double(grid)
    assert_array_equal(ext.grid.kappa, [1.0, 2.0, 2.0, 1.0])
    assert_array_equal(ext.grid.weights, [0.5, 1.0, 1.0, 0.5])
    # flux profile mirrors about the far wall and closes up periodically
    a2 = build_double(problem(8, a=lambda x: 1.0 + x)).grid.a
    assert a2[0] == a2[-1]

    # the geometry is derived bit for bit: 2L/2n rounds to L/n exactly
    grid = problem(n, length, kappa, a)
    h = grid.h
    assert problem(2 * n, 2.0 * length).h == h
    assert_array_equal(grid.centers, (np.arange(n) + 0.5) * h)
    assert_array_equal(grid.kappa, kappa(grid.centers))
    assert_array_equal(grid.a, a(np.arange(n + 1) * h))
    assert_array_equal(grid.weights, h * grid.kappa)
    # and the circle carries the reflected coefficients and weights
    grid = problem(m, length, kappa, a)
    circle = build_double(grid).grid
    assert circle.h == grid.h and circle.length == 2.0 * grid.length
    assert_array_equal(circle.centers, (np.arange(2 * m) + 0.5) * grid.h)
    assert_array_equal(circle.kappa, np.concatenate([grid.kappa, grid.kappa[::-1]]))
    assert_array_equal(circle.a, np.concatenate([grid.a, grid.a[-2::-1]]))
    assert_array_equal(circle.weights, np.concatenate([grid.weights, grid.weights[::-1]]))


def test_doubled_weights_pull_back_to_base():
    grid = problem(9, kappa=lambda x: 1.0 + 0.7 * x)
    ext = build_double(grid)
    for copy in copies(ext, ext.grid.weights):
        assert_array_equal(copy, grid.weights)


def test_extend_pair_frozen_example():
    grid = problem(2)
    ext = build_double(grid)
    U = extend_pair(ext, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert_array_equal(U, [1.0, 1.0, 1.0, -1.0])


def test_extend_pair_parity_special_cases():
    grid = problem(6)
    ext = build_double(grid)
    v = np.random.default_rng(0).standard_normal(6)
    plus, minus = copies(ext, extend_pair(ext, np.zeros(6), v))
    assert_array_equal(plus, minus)
    plus, minus = copies(ext, extend_pair(ext, v, np.zeros(6)))
    assert_array_equal(plus, -minus)
    with pytest.raises(ValueError):
        extend_pair(ext, np.zeros(5), v)


def test_split_inverts_extension():
    grid = problem(8)
    ext = build_double(grid)
    u = np.array([1.0, -2.0, 0.0, 3.0, 5.0, -1.0, 2.0, 4.0])
    v = np.array([0.0, 1.0, -1.0, 2.0, -3.0, 1.0, 0.0, -2.0])
    ru, rv = split(ext, extend_pair(ext, u, v))
    # integer-valued data round-trips without any rounding at all
    assert_array_equal(ru, u)
    assert_array_equal(rv, v)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    ru, rv = split(ext, extend_pair(ext, u, v))
    eps = np.finfo(float).eps
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)))
    assert np.max(np.abs(ru - u)) <= 8 * eps * scale
    assert np.max(np.abs(rv - v)) <= 8 * eps * scale


def test_split_parity_cases():
    grid = problem(5)
    ext = build_double(grid)
    u, v = split(ext, np.full(10, 3.25))
    assert_array_equal(u, np.zeros(5))
    assert_array_equal(v, np.full(5, 3.25))
    w = np.random.default_rng(1).standard_normal(5)
    u, v = split(ext, extend_pair(ext, w, np.zeros(5)))
    assert_array_equal(u, w)
    assert_array_equal(v, np.zeros(5))
    with pytest.raises(ValueError):
        split(ext, np.zeros(11))


def test_extend_eigenfunction_frozen_n2():
    grid, ext, basis_d, basis_n = double_setup(2)
    A = circle_operator(ext).dense()
    # merged circle order: N0 (0), D0 (8), N1 (8), D1 (16); ties keep D first
    assert_array_equal(ext.eigenvalues, [0.0, 8.0, 8.0, 16.0])

    X = dense_modes(ext)
    x = X[:, 1]
    assert_array_equal(x, extend_eigenfunction(ext, basis_d.vectors[:, 0], D))
    assert_allclose(x / x[0], [1.0, 1.0, -1.0, -1.0], rtol=1e-14)
    assert_allclose(A @ x, 8.0 * x, rtol=0, atol=1e-12)

    const = X[:, 0]
    assert_array_equal(const, extend_eigenfunction(ext, basis_n.vectors[:, 0], N))
    assert_allclose(A @ const, 0.0, rtol=0, atol=1e-12)

    y = X[:, 2]
    assert_array_equal(y, extend_eigenfunction(ext, basis_n.vectors[:, 1], N))
    assert_allclose(y / y[0], [1.0, -1.0, -1.0, 1.0], rtol=1e-12)
    assert_allclose(A @ y, 8.0 * y, rtol=0, atol=1e-12)

    assert_allclose(l2_norm(ext.grid, x), 1.0, rtol=1e-14)
    with pytest.raises(ValueError):
        extend_eigenfunction(ext, basis_d.vectors[:, 0], P)


def test_lift_region_targets_plus_copy_only():
    grid = problem(2)
    ext = build_double(grid)
    region = region_from_intervals(grid, [(0.5, 1.0)])
    lifted = lift_region(ext, region)
    assert_array_equal(np.flatnonzero(lifted.mask), [1])
    assert lifted.measure == 0.5

    g = problem(16)
    d = build_double(g)
    whole = region_from_intervals(g, [(0.0, 1.0)])
    lw = lift_region(d, whole)
    assert lw.measure == 1.0
    plus, minus = copies(d, lw.mask)
    assert plus.all() and not minus.any()


@pytest.mark.parametrize("n,kappa,a", [
    (8, 1.0, 1.0),
    (64, 1.0, 1.0),
    (64, lambda x: 1.0 + 0.5 * x, lambda x: 1.3 - 0.25 * x),
])
def test_spectrum_union(n, kappa, a):
    grid, ext, basis_d, basis_n = double_setup(n, kappa=kappa, a=a)
    union = np.sort(np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues]))
    circle = dense_eigenbasis(circle_operator(ext)).eigenvalues
    denom = np.maximum(np.maximum(np.abs(union), np.abs(circle)), 1.0)
    assert np.max(np.abs(union - circle) / denom) <= 1e-9


def test_extension_residuals_and_gram():
    grid, ext, basis_d, basis_n = double_setup(
        64, kappa=lambda x: 1.0 + 0.5 * x, a=lambda x: 1.0 + 0.2 * x
    )
    A = circle_operator(ext).dense()
    X = dense_modes(ext)
    for k in range(128):
        e = X[:, k]
        r = A @ e - ext.eigenvalues[k] * e
        assert l2_norm(ext.grid, r) <= 1e-10 * max(ext.eigenvalues[k], 1.0)
    gram = X.T @ (ext.grid.weights[:, None] * X)
    assert np.max(np.abs(gram - np.eye(128))) <= 1e-10
    assert np.all(np.diff(ext.eigenvalues) >= 0)


def test_extended_basis_input_order_guard():
    grid, ext, basis_d, basis_n = double_setup(4)
    assert basis_d.bc is D and basis_n.bc is N and ext.bc is P
    # every circle mode is an odd (Dirichlet) or an even (Neumann) extension
    plus, minus = copies(ext, dense_modes(ext))
    odd = np.all(plus == -minus, axis=0)
    even = np.all(plus == minus, axis=0)
    assert np.all(odd ^ even)
    assert odd.sum() == even.sum() == 4
    with pytest.raises(ValueError):
        extended_eigenbasis(ext, basis_n, basis_d)


@pytest.mark.parametrize("n", [2, 64, 128])
@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_circle_basis_matches_per_column_oracle(n, profile):
    kw = VARIABLE if profile == "variable" else {}
    grid, ext, basis_d, basis_n = double_setup(n, **kw)
    oracle = extended_eigenbasis(ext, basis_d, basis_n)
    X = dense_modes(ext)
    # the norms are summed in another order than the oracle's, so entries
    # may differ in their last bits
    eps = np.finfo(float).eps
    assert np.max(np.abs(X - oracle.vectors)) <= 4 * eps * np.max(np.abs(oracle.vectors))
    assert_array_equal(np.signbit(X), np.signbit(oracle.vectors))
    # modes contiguous in memory, as the oracle's columns are
    assert X.flags.f_contiguous == oracle.vectors.flags.f_contiguous
    assert_array_equal(ext.eigenvalues, oracle.eigenvalues)
    assert_array_equal(ext.frequencies, oracle.frequencies)
    assert (ext.grid.n, ext.grid.length) == (2 * n, 2 * grid.length)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_circle_view_serves_what_the_dense_basis_did(n, profile):
    kw = VARIABLE if profile == "variable" else {}
    grid, ext, basis_d, basis_n = double_setup(n, **kw)
    E = extended_eigenbasis(ext, basis_d, basis_n).vectors
    eps = np.finfo(float).eps
    tol = 4 * eps * np.max(np.abs(E))
    rng = np.random.default_rng(n)
    # rows of the lifted window and of a mask on both copies, for every K
    lifted = lift_region(ext, region_from_intervals(grid, [(0.2, 0.6)]))
    both = ControlRegion(ext.grid, rng.random(2 * n) < 0.5)
    for region in (lifted, both):
        for K in range(2 * n + 1):
            assert np.max(np.abs(ext.rows(region, K) - E[region.mask, :K]), initial=0.0) <= tol
        assert_array_equal(ext.rows(region), ext.rows(region, 2 * n))
    for K in range(2 * n + 1):
        assert np.max(np.abs(ext.columns(K) - E[:, :K]), initial=0.0) <= tol
    # Each coefficient and each synthesized entry is one sum of 2n products,
    # which the view and the dense product with X, the former stored basis
    # bit for bit, evaluate in different orders. With u = eps/2 and gamma_m =
    # m u / (1 - m u), a sum whose every term is formed by at most a roundings
    # and added by at most b more lies within gamma_(a+b) sum|term| of the
    # exact sum (Higham, Accuracy and Stability, Lemmas 3.1 and 3.4). A
    # synthesized entry's terms C_k X_jk take X_jk = fl(V_jk / norm_k) and the
    # product, then at most 2n - 1 additions: 2n + 1; the view's take C_k /
    # norm_k and the product with V_jk, then n - 1 additions in a wall and one
    # across: n + 2. A coefficient's terms X_jk (w_j U_j) take one rounding
    # more on either side (of w U, or of the view's U+ +- U-). So the two
    # differ by at most 2 gamma_(2n+2) sum|term| per entry, whatever the sign
    # of any mode; rounding the bar's own sum is a second-order change.
    X = dense_modes(ext)
    m = 2 * n + 2
    bar = 2 * m * (eps / 2) / (1 - m * (eps / 2))
    w = ext.grid.weights
    U = rng.standard_normal(2 * n)
    wU = w * U
    c = X.T @ wU
    assert np.all(np.abs(ext.coefficients(U) - c) <= bar * (np.abs(X).T @ np.abs(wU)))
    stack = rng.standard_normal((5, 2 * n))
    for C in (stack, stack[0]):  # a stack of coefficient sets, and a single one
        field = C @ X.T
        assert np.all(np.abs(ext.synthesize(C) - field) <= bar * (np.abs(C) @ np.abs(X).T))


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_dense_circle_basis_is_the_former_fill(n, profile):
    # the dense basis verify builds is bit for bit the 2n x 2n matrix that
    # build_double used to store
    kw = VARIABLE if profile == "variable" else {}
    grid, ext, basis_d, basis_n = double_setup(n, **kw)
    X = np.empty((2 * n, 2 * n))
    for sign, basis, r in ((-1.0, basis_d, ext.circle_rows[:n]), (1.0, basis_n, ext.circle_rows[n:])):
        V = basis.vectors.T / np.sqrt(2.0 * (grid.weights @ basis.vectors**2))[:, None]
        X[r, :n] = V
        X[r, n:] = sign * V[:, ::-1]
    dense = dense_modes(ext)
    assert_array_equal(dense, X.T)
    assert dense.flags.f_contiguous
    lifted = lift_region(ext, region_from_intervals(grid, [(0.2, 0.6)]))
    assert_array_equal(ext.rows(lifted, n), X.T[lifted.mask, :n])


@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_circle_rows_place_each_wall_mode(n, profile):
    kw = VARIABLE if profile == "variable" else {}
    grid, ext, basis_d, basis_n = double_setup(n, **kw)
    eps = np.finfo(float).eps
    for wall, rows, sign in ((basis_d, ext.circle_rows[:n], -1.0), (basis_n, ext.circle_rows[n:], 1.0)):
        # a circle mode is its wall mode over sqrt(2) on the plus copy and its
        # odd or even mirror on the other, once the wall mode's weighted norm
        # (1 to within about 10 eps) is divided out; the mirror copy tells
        # modes apart that agree on the plus copy, as at n = 2
        unit = wall.vectors / np.sqrt(grid.weights @ wall.vectors**2)
        plus, minus = copies(ext, dense_modes(ext)[:, rows])
        plus, minus = np.sqrt(2.0) * plus, sign * np.sqrt(2.0) * minus
        gap = max(np.max(np.abs(plus - unit)), np.max(np.abs(minus - unit)))
        assert gap <= 4 * eps * np.max(np.abs(unit))
    assert_array_equal(np.sort(ext.circle_rows), np.arange(2 * n))


def test_link_identity_random_triples():
    grid, ext, basis_d, basis_n = double_setup(64)
    rng = np.random.default_rng(12)
    top = float(ext.frequencies[-1])
    for _ in range(20):
        u, v = unit_pair(grid, int(rng.integers(1 << 30)))
        lam = float(rng.uniform(0.0, 1.05 * top))
        pu, pv = split(ext, project(ext, mode_count(ext, lam), extend_pair(ext, u, v)))
        pd = project(basis_d, mode_count(basis_d, lam), u)
        pn = project(basis_n, mode_count(basis_n, lam), v)
        assert sup_norm(pu - pd) <= 1e-10
        assert sup_norm(pv - pn) <= 1e-10


def test_wall_ghosts_of_parity_extensions():
    """Even circle fields satisfy the Neumann ghost rule across both walls,
    odd ones the Dirichlet rule, exactly."""
    grid = problem(12)
    ext = build_double(grid)
    f = np.random.default_rng(3).standard_normal(12)
    n = 12
    even = extend_pair(ext, np.zeros(n), f)
    # mirror cells across the walls carry identical values
    assert even[2 * n - 1] == even[0]
    assert even[n] == even[n - 1]
    odd = extend_pair(ext, f, np.zeros(n))
    assert odd[2 * n - 1] == -odd[0]
    assert odd[n] == -odd[n - 1]


def test_verify_flags_a_mode_of_the_wrong_parity():
    grid, ext, basis_d, basis_n = double_setup(16, **VARIABLE)
    good = verify(ext, 0)
    assert good.extension_eigenvectors <= 1e-10
    assert good.link_identity <= 1e-10
    bad = verify(mirror_flipped(ext, 1), 0)
    assert bad.extension_eigenvectors > 1e-10
    assert bad.link_identity > 1e-10
    # the dense eigensolve and the split round trip do not read the circle basis
    assert bad.spectrum_union == good.spectrum_union
    assert bad.split_roundtrip == good.split_roundtrip


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [16, 32])
def test_verify_flags_a_misscaled_top_mode(n, seed):
    # the top Dirichlet mode, divided on the circle by a norm 0.1% too large,
    # is still an eigenvector: only the link identity sees it, on the triples
    # whose cutoff reaches the top of the spectrum, so verify must draw enough
    ext = build_double(problem(n))
    norms = ext.norms[0].copy()
    norms[-1] *= 1.001
    good = verify(ext, seed)
    bad = verify(dataclasses.replace(ext, norms=(norms, ext.norms[1])), seed)
    assert good.link_identity < 1e-10
    assert bad.link_identity > 1e-6
    assert bad.extension_eigenvectors < 1e-10
    assert bad.spectrum_union == good.spectrum_union
    assert bad.split_roundtrip == good.split_roundtrip
