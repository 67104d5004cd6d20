"""Covariant quantum kernels with bit-flip-tolerant estimation.

Fidelity kernels from covariant feature maps on an exact statevector
simulator, a Hamming-tolerance readout mitigation scheme with its calibration
procedure, SPSA kernel-target alignment, an SMO support-vector classifier
over precomputed kernels, synthetic dataset generators, and executable checks
of the underlying theory.  The ``covkern`` console script drives end-to-end
experiments from JSON configs.
"""

from types import ModuleType as _ModuleType

from .simcore import (
    Circuit,
    GateOp,
    NoiseModel,
    ShotCounts,
    StateVector,
    apply_readout_noise,
    cz,
    hamming_weights,
    outcome_distribution,
    run_circuit,
    rx,
    ry,
    rz,
    sample_counts,
    weight_mass_profile,
    zero_state,
)
from .featuremap import (
    CouplingMap,
    EntanglerPlan,
    FeatureMapSpec,
    assign_features,
    build_embedding,
    build_entangler,
    build_fiducial,
    build_kernel_circuit,
    coupling_from_edges,
    heavy_hex_coupling,
    line_coupling,
    load_coupling,
    make_feature_map,
    ring_coupling,
    save_coupling,
)
from .kernel import (
    CalibrationReport,
    KernelConfig,
    KernelMatrixEstimate,
    assemble_cross,
    assemble_matrix,
    assemble_profiles,
    average_diagonal,
    calibrate,
    kernel_entry,
    load_matrix_csv,
    matrix_from_profiles,
    overlap_kernel_from_state,
    psd_distance,
    psd_project,
    repair_psd,
    save_calibration_csv,
    save_matrix_csv,
)
from .align import (
    AlignmentTrace,
    SPSAConfig,
    align_kernel,
    alignment_loss,
    center_matrix,
    centered_alignment,
    geometric_difference,
    load_trace_csv,
    save_trace_csv,
    target_matrix,
)
from .svc import (
    BinarySVC,
    MulticlassSVC,
    accuracy,
    fit_binary,
    fit_multiclass,
    generalized_rbf_matrix,
    grid_search,
    load_model_csv,
    predict,
    rbf_matrix,
    save_model_csv,
)
from .data import (
    CovariantSpec,
    Dataset,
    SubspaceSpec,
    bell_pair_dataset,
    gen_covariant,
    gen_union_subspaces,
    haar_rotation,
    load_csv,
    read_table,
    save_csv,
    split_dataset,
    subspace_bases,
    write_table,
)
from .theory import (
    CovarianceReport,
    CovariantStructure,
    bell_structure,
    check_covariance,
    cosine_product_kernel,
    sphere_inner_moment,
    subspace_kernel_expectations,
    verify_delta_kernel,
)

__version__ = "0.1.0"

# Importing the submodules binds their names here too; they are not exports.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
