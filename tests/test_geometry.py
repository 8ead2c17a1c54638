import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit.geometry import POSITIONS_CM, from_grid, to_grid


def taxel_cells():
    """Taxel index -> (row, col), read off to_grid: taxel i carries the value i + 1."""
    image = to_grid(np.repeat(np.arange(1.0, 50.0)[:, None], 3, axis=1))[2]
    return {int(v) - 1: cell for cell, v in np.ndenumerate(image) if v}


class TestTaxelIndex:
    def test_first_cell(self):
        assert taxel_cells()[0] == (0, 0)

    def test_phantom_cell(self):
        assert (4, 9) not in taxel_cells().values()

    def test_exactly_49_valid(self):
        assert len(taxel_cells()) == 49

    def test_bijection(self):
        cells = taxel_cells()
        assert sorted(cells) == list(range(49))
        assert len(set(cells.values())) == 49

    def test_row_major(self):
        cells = taxel_cells()
        assert cells[9] == (0, 9) and cells[10] == (1, 0) and cells[48] == (4, 8)
        assert [cells[i] for i in range(49)] == sorted(cells.values())

    def test_column_layout(self):
        # columns 0-8 full, column 9 has rows 0-3
        cells = set(taxel_cells().values())
        assert {(r, c) for r in range(5) for c in range(9)} <= cells
        assert {r for r, c in cells if c == 9} == {0, 1, 2, 3}

    def test_positions(self):
        assert POSITIONS_CM.shape == (49, 2) and POSITIONS_CM.dtype == np.float64
        assert not POSITIONS_CM.flags.writeable
        # x along the columns, y along the rows, 1.5 cm apart
        assert POSITIONS_CM.tolist() == [[c * 1.5, r * 1.5]
                                         for _, (r, c) in sorted(taxel_cells().items())]


class TestToGrid:
    def test_all_zero(self):
        image = to_grid(np.zeros((49, 3)))
        assert image.shape == (3, 5, 10)
        assert not image.any()

    def test_single_site(self):
        forces = np.zeros((49, 3))
        forces[0, 2] = 1.0
        image = to_grid(forces)
        assert image[2, 0, 0] == 1.0
        image[2, 0, 0] = 0.0
        assert not image.any()

    def test_conservation(self):
        rng = np.random.default_rng(0)
        forces = rng.normal(size=(49, 3))
        image = to_grid(forces)
        # the phantom cell adds nothing, so absolute sums agree
        assert np.isclose(np.abs(image).sum(), np.abs(forces).sum())

    def test_phantom_cell_zero(self):
        forces = np.ones((49, 3))
        image = to_grid(forces)
        assert (image[:, 4, 9] == 0).all()

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            to_grid(np.zeros((48, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip(seed):
    forces = np.random.default_rng(seed).normal(size=(49, 3))
    assert np.array_equal(from_grid(to_grid(forces)), forces)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    f, g = rng.normal(size=(49, 3)), rng.normal(size=(49, 3))
    lhs = to_grid(a * f + b * g)
    rhs = a * to_grid(f) + b * to_grid(g)
    assert np.allclose(lhs, rhs, atol=1e-12)
