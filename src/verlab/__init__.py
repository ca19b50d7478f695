"""verlab: exact combinatorial invariants of modular tensor-category data.

Subpackages cover the SL2 character ring, tilting tensor decompositions,
level-p fusion, the level-p^n simple calculus with its symmetric-power
knowledge base, F_p Hilbert-series / p-adic dimension arithmetic, and
growth-dimension estimators.  Each layer's code runs on its first use.
"""

import importlib.util
import sys

# The public names, by the layer that defines them.
_PUBLIC = {
    "errors": "",
    "characters": "Basis Character Decomposition decompose simple_char weyl_char",
    "tilting": "is_negligible tensor_decompose_tilt tilting_char",
    "verpn": "Sym SymStatus embed max_index odd_line steinberg_digits "
    "steinberg_product sym_power_status",
    "fusion": "FusionElement clebsch_gordan_truncated fpdim fuse gd_estimate "
    "verlinde_oracle",
    "padic": "FpSeries PadicDigits dimplus_from_series dimplus_of_finite_sym extension_series "
    "extension_transform frobenius_palindromy_check one_minus_t_pow one_minus_t_pow_int "
    "padic_of_int",
    "growth": "GrowthEstimate LengthProvider MnReport binomial_provider constant_provider "
    "csv_provider mn_diagnostic nabla_length partition_count partitions_provider "
    "sgd_estimate sl2_sym_provider",
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def _lazy(layer: str):
    """``verlab.<layer>`` as a LazyLoader module, registered in sys.modules.

    A module rather than a name resolved on demand, because tools that wrap
    a layer look it up in sys.modules right after ``import verlab``.
    """
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({layer: _lazy(layer) for layer in _PUBLIC})


def __getattr__(name: str):
    """Resolve a public name on its layer, running the layer if it has not run."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)
