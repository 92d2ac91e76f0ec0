"""diffconv: padding-free size-keeping 2D convolution.

Convolution over an incomplete boundary window is replaced by a shifted
convolution of the nearest complete window with a transformed kernel, computed
so the kernel's action as a differential operator is preserved at the boundary
pixel. The package also ships the usual padding baselines, partial
convolution, analytic test fields, and a benchmark harness.
"""

from .benchmark import BenchmarkConfig, derive_seed, l1_error, mse, rows_to_csv, run_benchmark
from .engine import (
    METHODS,
    PaddingScheme,
    apply_method,
    conv2d_diff,
    conv2d_valid,
    pad,
    partial_conv2d,
)
from .fields import (
    FAMILIES,
    FieldSpec,
    RandomKernelSpec,
    generate,
    oracle_convolution,
    random_kernels,
)
from .npyio import ArrayFileError, load_array, save_array
from .stencils import (
    as_kernel,
    build_bank,
    center_condition_number,
    half_width,
    invert_center_matrix,
    kernel_from_operator,
    stencil_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayFileError",
    "BenchmarkConfig",
    "FAMILIES",
    "FieldSpec",
    "METHODS",
    "PaddingScheme",
    "RandomKernelSpec",
    "apply_method",
    "as_kernel",
    "build_bank",
    "center_condition_number",
    "conv2d_diff",
    "conv2d_valid",
    "derive_seed",
    "generate",
    "half_width",
    "invert_center_matrix",
    "kernel_from_operator",
    "l1_error",
    "load_array",
    "mse",
    "oracle_convolution",
    "pad",
    "partial_conv2d",
    "random_kernels",
    "rows_to_csv",
    "run_benchmark",
    "save_array",
    "stencil_matrix",
]
