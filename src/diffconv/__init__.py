"""diffconv: padding-free size-keeping 2D convolution.

Convolution over an incomplete boundary window is replaced by a shifted
convolution of the nearest complete window with a transformed kernel, computed
so the kernel's action as a differential operator is preserved at the boundary
pixel. The package also ships the usual padding baselines, partial
convolution, analytic test fields, and a benchmark harness.
"""

from .baselines import (
    SCHEME_TAGS,
    PaddingScheme,
    band_thickness,
    conv2d_padded,
    extrapolation_degree,
    pad,
    partial_conv2d,
)
from .benchmark import (
    METHODS,
    BenchmarkConfig,
    apply_method,
    derive_seed,
    rows_to_csv,
    run_benchmark,
)
from .engine import as_field, conv2d_diff, conv2d_valid
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
from .metrics import interior_frame_split, l1_error, mse
from .npyio import ArrayFileError, load_array, save_array
from .stencils import (
    SUPPORTED_SIZES,
    DerivativeStencil,
    StencilMatrix,
    center_condition_number,
    derivative_stencil,
    half_width,
    invert_center_matrix,
    lagrange_derivative,
    stencil_matrix,
)
from .transform import (
    KernelBank,
    as_kernel,
    build_bank,
    identity_kernel,
    kernel_from_operator,
    operator_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayFileError",
    "BenchmarkConfig",
    "DerivativeStencil",
    "FAMILIES",
    "Field",
    "FieldSpec",
    "KernelBank",
    "METHODS",
    "PaddingScheme",
    "RandomKernelSpec",
    "SCHEME_TAGS",
    "SUPPORTED_SIZES",
    "StencilMatrix",
    "apply_method",
    "as_field",
    "as_kernel",
    "band_thickness",
    "build_bank",
    "center_condition_number",
    "chebyshev_U",
    "conv2d_diff",
    "conv2d_padded",
    "conv2d_valid",
    "derivative_stencil",
    "derive_seed",
    "extrapolation_degree",
    "generate",
    "half_width",
    "identity_kernel",
    "interior_frame_split",
    "invert_center_matrix",
    "kernel_from_operator",
    "l1_error",
    "lagrange_derivative",
    "load_array",
    "mse",
    "operator_coeffs",
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
