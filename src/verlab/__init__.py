"""verlab: exact combinatorial invariants of modular tensor-category data.

Subpackages cover the SL2 character ring, tilting tensor decompositions,
level-p fusion, the level-p^n simple calculus with its symmetric-power
knowledge base, F_p Hilbert-series / p-adic dimension arithmetic, and
growth-dimension estimators.
"""

from .characters import (
    Basis,
    Character,
    Decomposition,
    decompose,
    simple_char,
    specialize,
    weyl_char,
)
from .fusion import (
    FusionElement,
    clebsch_gordan_truncated,
    dim_fp,
    fpdim,
    fuse,
    gd_estimate,
    verlinde_oracle,
)
from .growth import (
    GrowthEstimate,
    LengthProvider,
    MnReport,
    binomial_provider,
    constant_provider,
    csv_provider,
    mn_diagnostic,
    nabla_length,
    partition_count,
    partitions_provider,
    sgd_estimate,
    sl2_sym_provider,
)
from .padic import (
    FpSeries,
    PadicDigits,
    dimplus_from_series,
    dimplus_of_finite_sym,
    extension_series,
    extension_transform,
    frobenius_palindromy_check,
    one_minus_t_pow,
    one_minus_t_pow_int,
    padic_of_int,
)
from .tilting import is_negligible, tensor_decompose_tilt, tilting_char
from .verpn import (
    Sym,
    SymStatus,
    VerpnSimple,
    embed,
    max_index,
    odd_line,
    steinberg_digits,
    steinberg_product,
    sym_power_status,
)

__version__ = "0.1.0"
