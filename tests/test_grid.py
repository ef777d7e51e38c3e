"""Grid construction, control regions, and mask file round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from simulheat.control import ControlSignal
from simulheat.doubling import DoublingResiduals, build_double
from simulheat.grid import (
    ControlRegion,
    EmptyRegionError,
    Grid1D,
    ResolutionError,
    fat_cantor_region,
    parse_region_spec,
    read_mask_file,
    region_from_intervals,
    write_mask_file,
)
from simulheat.operators import BoundaryCondition, assemble_laplacian
from simulheat.sim import SimultaneousReport, Trajectory
from simulheat.specineq import SpectralConstantEstimate


def test_uniform_grid_basic_layout():
    g = Grid1D(2)
    assert g.h == 0.5
    assert_array_equal(g.centers, [0.25, 0.75])
    assert_array_equal(g.weights, [0.5, 0.5])


def test_grid_scales_with_length():
    g = Grid1D(4, length=2.0)
    assert g.h == 0.5
    assert_array_equal(g.centers, [0.25, 0.75, 1.25, 1.75])


def test_variable_density_weights():
    # weights = h * kappa(centers), by hand: 0.5*(1.25), 0.5*(1.75)
    g = Grid1D(2, kappa=lambda x: 1.0 + x)
    assert_array_equal(g.weights, [0.625, 0.875])


def test_unit_density_weights_sum_to_length():
    for n in (3, 17, 128):
        g = Grid1D(n, length=1.5)
        assert_allclose(g.weights.sum(), 1.5, rtol=1e-14)


def test_grid_argument_validation():
    with pytest.raises(ValueError):
        Grid1D(1)
    with pytest.raises(ValueError):
        Grid1D(4, length=0.0)
    with pytest.raises(ValueError):
        Grid1D(4, kappa=lambda x: np.ones(3))


def test_coefficients_validation():
    samples = np.ones(4)
    g = Grid1D(4, kappa=samples)
    assert g.kappa.shape == (4,) and g.a.shape == (5,)
    # the grid keeps read-only copies and leaves the caller's samples alone
    assert samples.flags.writeable and not g.kappa.flags.writeable
    with pytest.raises(ValueError):
        Grid1D(4, a=np.ones(4))  # faces must be n+1
    with pytest.raises(ValueError):
        Grid1D(4, kappa=np.zeros(4))  # ellipticity floor
    with pytest.raises(ValueError):
        Grid1D(4, kappa=np.ones((2, 2)))


@pytest.mark.parametrize("name", ["kappa", "a"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["function", "constant", "samples"])
def test_non_finite_coefficients_are_refused(name, bad, form):
    samples = np.ones(8 if name == "kappa" else 9)
    samples[3] = bad
    profile = {"function": lambda x: samples, "constant": bad, "samples": samples}[form]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Grid1D(8, **{name: profile})


def test_region_from_intervals_frozen_masks():
    g = Grid1D(4)
    r = region_from_intervals(g, [(0.0, 0.5)])
    assert_array_equal(r.mask, [True, True, False, False])
    assert r.measure == 0.5
    r = region_from_intervals(g, [(0.6, 0.9)])
    assert_array_equal(r.mask, [False, False, True, True])
    assert r.measure == 0.5


def test_region_membership_is_open():
    # centers sitting exactly on an endpoint stay outside
    g = Grid1D(4)
    r = region_from_intervals(g, [(0.375, 0.875)])
    assert_array_equal(r.mask, [False, False, True, False])


def test_region_union_of_intervals():
    g = Grid1D(10)
    r = region_from_intervals(g, [(0.0, 0.2), (0.7, 1.0)])
    assert_array_equal(np.flatnonzero(r.mask), [0, 1, 7, 8, 9])
    assert_allclose(r.measure, 0.5, rtol=1e-15)


def test_region_error_cases():
    g = Grid1D(4)
    with pytest.raises(EmptyRegionError):
        region_from_intervals(g, [(0.9, 0.95)])
    with pytest.raises(ValueError):
        region_from_intervals(g, [(0.5, 0.5)])
    with pytest.raises(EmptyRegionError):
        ControlRegion(g, np.zeros(4, dtype=bool))


def test_region_monotone_under_enlargement():
    g = Grid1D(37)
    small = region_from_intervals(g, [(0.3, 0.42)])
    big = region_from_intervals(g, [(0.25, 0.55)])
    assert np.all(big.mask[small.mask])


def test_region_measure_is_exact_popcount():
    g = Grid1D(13)
    r = region_from_intervals(g, [(0.1, 0.8)])
    assert r.measure == g.h * int(r.mask.sum())


def test_fat_cantor_full_target_keeps_everything():
    g = Grid1D(16)
    r = fat_cantor_region(g, 1.0, depth=1, seed=0)
    assert r.mask.all()
    assert r.measure == 1.0


def test_fat_cantor_measure_tracks_target():
    g = Grid1D(16)
    r = fat_cantor_region(g, 0.5, depth=2, seed=3)
    assert abs(r.measure - 0.5) <= 2 * g.h
    assert r.measure == g.h * int(r.mask.sum())


def test_fat_cantor_keeps_exactly_the_target_cells():
    # every size, kept count and depth up to 24 cells: the removal levels
    # alone land on the exact count, with no mop-up pass after them
    for n in range(2, 25):
        g = Grid1D(n)
        for keep in range(1, n + 1):
            for depth in range(1, n + 1):
                r = fat_cantor_region(g, keep * g.h, depth, seed=n * keep + depth)
                assert int(r.mask.sum()) == keep, (n, keep, depth)


@pytest.mark.parametrize("n, keep, depth, seed, mask", [
    (21, 8, 5, 1, "001001100000001010111"),
    (37, 7, 5, 0, "0000000010100000000000000011010000101"),
])
def test_fat_cantor_levels_before_the_last_keep_both_flanks(n, keep, depth, seed, mask):
    # on these small grids a level before the last is dealt a share that
    # reaches the block it cuts; it removes at most size - 2 cells, keeping a
    # cell on either side of the cut, and leaves the rest to later levels
    g = Grid1D(n)
    r = fat_cantor_region(g, keep * g.h, depth, seed)
    assert "".join("1" if b else "0" for b in r.mask) == mask


def test_fat_cantor_deep_mask_shape():
    g = Grid1D(1024)
    r = fat_cantor_region(g, 0.3, depth=6, seed=11)
    assert abs(r.measure - 0.3) <= 6 * g.h
    # after 6 removal levels no kept block may exceed 1024/2^6 + 1 cells
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], r.mask.view(np.int8), [0]]))))[::2]
    assert runs.max() <= 1024 // 64 + 1


def test_fat_cantor_determinism():
    g = Grid1D(256)
    a = fat_cantor_region(g, 0.4, depth=4, seed=9)
    b = fat_cantor_region(g, 0.4, depth=4, seed=9)
    assert_array_equal(a.mask, b.mask)
    assert a.mask.dtype == np.bool_


def test_fat_cantor_errors():
    g = Grid1D(16)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 0.5, depth=0, seed=0)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 0.0, depth=2, seed=0)
    with pytest.raises(ValueError):
        fat_cantor_region(g, 1.5, depth=2, seed=0)
    with pytest.raises(ResolutionError):
        fat_cantor_region(g, 0.001, depth=2, seed=0)


def test_mask_file_roundtrip(tmp_path):
    g = Grid1D(64)
    r = fat_cantor_region(g, 0.4, depth=3, seed=5)
    path = tmp_path / "mask.txt"
    write_mask_file(path, r)
    back = read_mask_file(path, g)
    assert_array_equal(back.mask, r.mask)
    assert back.measure == r.measure


def test_mask_file_validation(tmp_path):
    g = Grid1D(8)
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
    g = Grid1D(8)
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


def test_problem_objects_compare_by_identity_and_hash():
    # their fields are arrays, so value equality would ask numpy for the
    # truth of an array; each object equals itself alone and goes in a set
    a, b = Grid1D(4), Grid1D(4)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    da, db = build_double(a), build_double(b)
    pairs = [
        (region_from_intervals(a, [(0.0, 0.5)]), region_from_intervals(a, [(0.0, 0.5)])),
        (da.walls[0], db.walls[0]),
        (da, db),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_result_objects_compare_by_identity_and_hash():
    # so do the objects built on a problem: two from the same arguments are
    # distinct, and neither comparing nor hashing them raises
    grid = Grid1D(4)
    region = region_from_intervals(grid, [(0.0, 0.5)])

    def signal():
        return ControlSignal(np.array([0.0, 1.0]), np.zeros((1, 2)), region)

    def trajectory():
        return Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4)), np.zeros(2), np.zeros(2))

    makers = [
        lambda: assemble_laplacian(grid, BoundaryCondition.DIRICHLET),
        signal,
        trajectory,
        lambda: SimultaneousReport(0.0, 0.0, 0.0, 0.0, 0.0, "hum", 1.0, 1.0, 1e-6, True,
                                   signal(), trajectory(), trajectory(), trajectory()),
        lambda: SpectralConstantEstimate(lam=1.0, mode_count=1, region_measure=0.5, constant=1.0,
                                         certificate=np.ones(1), upper=1.0),
        lambda: DoublingResiduals(0.0, 0.0, 0.0, 0.0, np.zeros(2)),
    ]
    for make in makers:
        x, y = make(), make()
        assert x == x and x != y
        assert len({x, y, x}) == 2
