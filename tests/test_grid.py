"""Grid construction, control regions, and mask file round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from simulheat.grid import (
    Coefficients,
    ControlRegion,
    EmptyRegionError,
    Grid1D,
    ResolutionError,
    fat_cantor_region,
    make_coefficients,
    make_uniform_grid,
    parse_region_spec,
    read_mask_file,
    region_from_intervals,
    write_mask_file,
)


def test_uniform_grid_basic_layout():
    g = make_uniform_grid(2)
    assert g.h == 0.5
    assert_array_equal(g.centers, [0.25, 0.75])
    assert_array_equal(g.weights, [0.5, 0.5])


def test_grid_scales_with_length():
    g = make_uniform_grid(4, length=2.0)
    assert g.h == 0.5
    assert_array_equal(g.centers, [0.25, 0.75, 1.25, 1.75])


def test_variable_density_weights():
    # weights = h * kappa(centers), by hand: 0.5*(1.25), 0.5*(1.75)
    g = make_uniform_grid(2, kappa=lambda x: 1.0 + x)
    assert_array_equal(g.weights, [0.625, 0.875])


def test_unit_density_weights_sum_to_length():
    for n in (3, 17, 128):
        g = make_uniform_grid(n, length=1.5)
        assert_allclose(g.weights.sum(), 1.5, rtol=1e-14)


def test_grid_argument_validation():
    with pytest.raises(ValueError):
        make_uniform_grid(1)
    with pytest.raises(ValueError):
        make_uniform_grid(4, length=0.0)
    with pytest.raises(ValueError):
        make_uniform_grid(4, kappa=lambda x: np.ones(3))


def test_grid_invariants_enforced_on_direct_construction():
    centers = np.array([0.75, 0.25])  # not increasing
    with pytest.raises(ValueError):
        Grid1D(n=2, length=1.0, h=0.5, centers=centers, weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Grid1D(n=2, length=1.0, h=0.5, centers=np.array([0.25, 0.75]), weights=np.array([0.5, -0.5]))


def test_coefficients_validation():
    g = make_uniform_grid(4)
    c = make_coefficients(g)
    assert c.kappa.shape == (4,) and c.a.shape == (5,)
    with pytest.raises(ValueError):
        Coefficients(kappa=np.ones(4), a=np.ones(4))  # faces must be n+1
    with pytest.raises(ValueError):
        Coefficients(kappa=np.zeros(4), a=np.ones(5))  # ellipticity floor
    with pytest.raises(ValueError):
        Coefficients(kappa=np.ones((2, 2)), a=np.ones(5))


def test_region_from_intervals_frozen_masks():
    g = make_uniform_grid(4)
    r = region_from_intervals(g, [(0.0, 0.5)])
    assert_array_equal(r.mask, [True, True, False, False])
    assert r.measure == 0.5
    r = region_from_intervals(g, [(0.6, 0.9)])
    assert_array_equal(r.mask, [False, False, True, True])
    assert r.measure == 0.5


def test_region_membership_is_open():
    # centers sitting exactly on an endpoint stay outside
    g = make_uniform_grid(4)
    r = region_from_intervals(g, [(0.375, 0.875)])
    assert_array_equal(r.mask, [False, False, True, False])


def test_region_union_of_intervals():
    g = make_uniform_grid(10)
    r = region_from_intervals(g, [(0.0, 0.2), (0.7, 1.0)])
    assert_array_equal(np.flatnonzero(r.mask), [0, 1, 7, 8, 9])
    assert_allclose(r.measure, 0.5, rtol=1e-15)


def test_region_error_cases():
    g = make_uniform_grid(4)
    with pytest.raises(EmptyRegionError):
        region_from_intervals(g, [(0.9, 0.95)])
    with pytest.raises(ValueError):
        region_from_intervals(g, [(0.5, 0.5)])
    with pytest.raises(EmptyRegionError):
        ControlRegion(mask=np.zeros(4, dtype=bool), measure=0.0)


def test_region_monotone_under_enlargement():
    g = make_uniform_grid(37)
    small = region_from_intervals(g, [(0.3, 0.42)])
    big = region_from_intervals(g, [(0.25, 0.55)])
    assert np.all(big.mask[small.mask])


def test_region_measure_is_exact_popcount():
    g = make_uniform_grid(13)
    r = region_from_intervals(g, [(0.1, 0.8)])
    assert r.measure == g.h * int(r.mask.sum())


def test_fat_cantor_full_target_keeps_everything():
    g = make_uniform_grid(16)
    r = fat_cantor_region(g, 1.0, depth=1, seed=0)
    assert r.mask.all()
    assert r.measure == 1.0


def test_fat_cantor_measure_tracks_target():
    g = make_uniform_grid(16)
    r = fat_cantor_region(g, 0.5, depth=2, seed=3)
    assert abs(r.measure - 0.5) <= 2 * g.h
    assert r.measure == g.h * int(r.mask.sum())


def test_fat_cantor_keeps_exactly_the_target_cells():
    # every size, kept count and depth up to 24 cells: the removal levels
    # alone land on the exact count, with no mop-up pass after them
    for n in range(2, 25):
        g = make_uniform_grid(n)
        for keep in range(1, n + 1):
            for depth in range(1, n + 1):
                r = fat_cantor_region(g, keep * g.h, depth, seed=n * keep + depth)
                assert int(r.mask.sum()) == keep, (n, keep, depth)


def test_fat_cantor_deep_mask_shape():
    g = make_uniform_grid(1024)
    r = fat_cantor_region(g, 0.3, depth=6, seed=11)
    assert abs(r.measure - 0.3) <= 6 * g.h
    # after 6 removal levels no kept block may exceed 1024/2^6 + 1 cells
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], r.mask.view(np.int8), [0]]))))[::2]
    assert runs.max() <= 1024 // 64 + 1


def test_fat_cantor_determinism():
    g = make_uniform_grid(256)
    a = fat_cantor_region(g, 0.4, depth=4, seed=9)
    b = fat_cantor_region(g, 0.4, depth=4, seed=9)
    assert_array_equal(a.mask, b.mask)
    assert a.mask.dtype == np.bool_


def test_fat_cantor_errors():
    g = make_uniform_grid(16)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 0.5, depth=0, seed=0)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 0.0, depth=2, seed=0)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 1.5, depth=2, seed=0)
    with pytest.raises(ResolutionError):
        fat_cantor_region(g, 0.001, depth=2, seed=0)


def test_mask_file_roundtrip(tmp_path):
    g = make_uniform_grid(64)
    r = fat_cantor_region(g, 0.4, depth=3, seed=5)
    path = tmp_path / "mask.txt"
    write_mask_file(path, r)
    back = read_mask_file(path, g)
    assert_array_equal(back.mask, r.mask)
    assert back.measure == r.measure


def test_mask_file_validation(tmp_path):
    g = make_uniform_grid(8)
    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n")
    with pytest.raises(ValueError):
        read_mask_file(bad, g)
    bad.write_text("01012x01\n")
    with pytest.raises(ValueError):
        read_mask_file(bad, g)
    with pytest.raises(ValueError):
        read_mask_file(tmp_path / "missing.txt", g)


def test_parse_region_spec(tmp_path):
    g = make_uniform_grid(8)
    r = parse_region_spec("0.25,0.75", g)
    assert_array_equal(np.flatnonzero(r.mask), [2, 3, 4, 5])
    r = parse_region_spec("0.0,0.25; 0.75,1.0", g)
    assert_array_equal(np.flatnonzero(r.mask), [0, 1, 6, 7])
    path = tmp_path / "m.txt"
    write_mask_file(path, r)
    again = parse_region_spec(str(path), g)
    assert_array_equal(again.mask, r.mask)
    with pytest.raises(ValueError):
        parse_region_spec("0.1,0.2,0.3", g)
    with pytest.raises(ValueError):
        parse_region_spec(";", g)
