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
    SCHEME_TAGS,
    PaddingScheme,
    apply_method,
    as_field,
    conv2d_diff,
    conv2d_valid,
    pad,
    partial_conv2d,
)
from .fields import (
    FAMILIES,
    Field,
    FieldSpec,
    RandomKernelSpec,
    chebyshev_U,
    generate,
    oracle_convolution,
    random_kernels,
    spherical_Y,
)
from .npyio import ArrayFileError, load_array, save_array
from .stencils import (
    SUPPORTED_SIZES,
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
    "Field",
    "FieldSpec",
    "METHODS",
    "PaddingScheme",
    "RandomKernelSpec",
    "SCHEME_TAGS",
    "SUPPORTED_SIZES",
    "apply_method",
    "as_field",
    "as_kernel",
    "build_bank",
    "center_condition_number",
    "chebyshev_U",
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
    "spherical_Y",
    "stencil_matrix",
]
