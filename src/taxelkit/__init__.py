"""Tri-axial tactile gesture toolkit: magnetic taxel forward model,
bias-free quadratic calibration, synthetic 13-class gesture datasets, and
a from-scratch CNN classifier with a normal-vs-normal+shear ablation
harness.
"""
from .geometry import POSITIONS_CM, from_grid, to_grid
from .magnetics import (DipoleParams, StiffnessModel, TaxelGeometry, dipole_flux,
                        flux_sweep, force_to_displacement, simulate_taxel)
from .calibration import (CalibrationModel, fit_taxel, predict_force,
                          quadratic_features, rms_error)
from .gestures import (GestureClass, GestureRecording, UserProfile,
                       synth_dataset, synth_recording, user_profile)
from .nn import AdamState, CnnModel, softmax_cross_entropy
from .pipeline import (AblationMode, ConfusionMatrix, DatasetSplit, TrainConfig,
                       ablate, assemble_tensor, apply_normalization, evaluate,
                       fit_normalization, split_dataset, train)

__version__ = "0.1.0"
