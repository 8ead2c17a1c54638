import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit.geometry import COLS, N_TAXELS, POSITIONS_CM, ROWS
from taxelkit.gestures import N_FRAMES
from taxelkit.pipeline import AblationMode, TensorView


def batch(frames: np.ndarray, mode: AblationMode) -> np.ndarray:
    """The TensorView batch the CNN reads for (n, 122, 49, 3) frames."""
    return TensorView(frames.__getitem__, range(len(frames)), mode)[:]


def taxel_cells():
    """Taxel index -> (row, col), read off a TensorView batch: taxel i carries the value i + 1."""
    frames = np.broadcast_to(np.arange(1.0, N_TAXELS + 1)[:, None], (1, N_FRAMES, N_TAXELS, 3))
    image = batch(frames, AblationMode.NORMAL_ONLY)[0, 0]
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
    """The scatter of taxel frames onto the 5 x 10 grid, as the TensorView batch does it."""

    def test_single_site(self):
        frames = np.zeros((1, N_FRAMES, N_TAXELS, 3), dtype=np.float32)
        frames[0, 0, 0, 2] = 1.0
        x = batch(frames, AblationMode.NORMAL_AND_SHEAR)
        assert x[0, 2, 0, 0] == 1.0
        x[0, 2, 0, 0] = 0.0
        assert not x.any()

    def test_phantom_cell_zero(self):
        for mode in AblationMode:
            x = batch(np.ones((2, N_FRAMES, N_TAXELS, 3), dtype=np.float32), mode)
            assert (x[:, :, 4, 9] == 0).all()
            assert x.sum() == x.shape[0] * x.shape[1] * N_TAXELS


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(AblationMode), st.integers(0, 2**32 - 1))
def test_round_trip(mode, seed):
    # gathering the 49 taxels back out of each (frame, axis) image gives the
    # mode's axes of the frames unchanged
    frames = np.random.default_rng(seed).normal(size=(2, N_FRAMES, N_TAXELS, 3))
    frames = frames.astype(np.float32)
    k = mode.n_axes
    x = batch(frames, mode).reshape(2, N_FRAMES, k, ROWS * COLS)[..., :N_TAXELS]
    assert np.array_equal(x.transpose(0, 1, 3, 2), frames[..., 3 - k:])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(AblationMode), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_batch_layout(mode, n, seed):
    # taxel i of frame f, axis a (one of the mode's last k axes) is at channel
    # f*k + a - (3 - k), cell divmod(i, COLS); the phantom cell holds 0
    frames = np.random.default_rng(seed).normal(size=(n, N_FRAMES, N_TAXELS, 3))
    frames = frames.astype(np.float32)
    x = batch(frames, mode)
    k = mode.n_axes
    assert x.shape == (n, N_FRAMES * k, ROWS, COLS) and x.dtype == np.float32
    f, a, i = np.meshgrid(np.arange(N_FRAMES), np.arange(3 - k, 3), np.arange(N_TAXELS),
                          indexing="ij")
    row, col = np.divmod(i, COLS)
    assert np.array_equal(x[:, f * k + a - (3 - k), row, col], frames[:, f, i, a])
    assert not x[:, :, 4, 9].any()
