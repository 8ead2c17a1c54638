import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit.geometry import GRID, from_grid, to_grid


class TestTaxelIndex:
    def test_first_cell(self):
        assert GRID.taxel_index(0, 0) == 0

    def test_phantom_cell(self):
        assert GRID.taxel_index(4, 9) is None

    def test_exactly_49_valid(self):
        indices = [GRID.taxel_index(r, c) for r in range(5) for c in range(10)]
        valid = [i for i in indices if i is not None]
        assert len(valid) == 49

    def test_bijection(self):
        valid = [GRID.taxel_index(r, c) for r in range(5) for c in range(10)
                 if GRID.valid_mask[r, c]]
        assert sorted(valid) == list(range(49))

    def test_row_major(self):
        assert GRID.taxel_index(0, 9) == 9
        assert GRID.taxel_index(1, 0) == 10
        assert GRID.taxel_index(4, 8) == 48

    def test_column_layout(self):
        # columns 0-8 full, column 9 has rows 0-3
        assert GRID.valid_mask[:, :9].all()
        assert GRID.valid_mask[:4, 9].all()
        assert not GRID.valid_mask[4, 9]

    @pytest.mark.parametrize("row,col", [(-1, 0), (5, 0), (0, -1), (0, 10)])
    def test_out_of_bounds(self, row, col):
        with pytest.raises(IndexError):
            GRID.taxel_index(row, col)


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
