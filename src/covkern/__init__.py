"""Covariant quantum kernels with bit-flip-tolerant estimation.

Fidelity kernels from covariant feature maps on an exact statevector
simulator, a Hamming-tolerance readout mitigation scheme with its calibration
procedure, SPSA kernel-target alignment, an SMO support-vector classifier
over precomputed kernels, synthetic dataset generators, and executable checks
of the underlying theory.  The ``covkern`` console script drives end-to-end
experiments from JSON configs.

The top level holds the README quick start's names; everything else is
reached through its module (``covkern.kernel``, ``covkern.svc``, ...).
"""

from . import align, data, featuremap, kernel, simcore, svc, theory
from .align import SPSAConfig, align_kernel
from .data import bell_pair_dataset, split_dataset
from .featuremap import line_coupling, make_feature_map
from .kernel import KernelConfig, assemble_cross, assemble_matrix, calibrate, repair_psd
from .simcore import NoiseModel
from .svc import accuracy, fit_multiclass, predict

__version__ = "0.1.0"

__all__ = ["KernelConfig", "NoiseModel", "SPSAConfig", "accuracy", "align_kernel",
           "assemble_cross", "assemble_matrix", "bell_pair_dataset", "calibrate",
           "fit_multiclass", "line_coupling", "make_feature_map", "predict", "repair_psd",
           "split_dataset"]
