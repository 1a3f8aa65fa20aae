"""Exact desk-scale toolkit for additive combinatorics over F_2^n."""

from .core import (
    BudgetError,
    DimensionError,
    F2Set,
    SetFileError,
    distinct_sumset,
    distinct_sumset_power,
    parse_set,
    serialize_set,
)
from .dissociation import FamilySpec, in_family, is_dissociated, random_dissociated
from .energy import (
    additive_energy,
    convolve,
    dk_zeta,
    energy_bruteforce,
    energy_function,
    energy_multiset,
    energy_spectral,
    holder_check,
    subadditivity_check,
)
from .exact import ExactnessError
from .inverse import (
    ConnectednessParams,
    FiberDecomposition,
    InverseParams,
    Rectangle,
    bombieri_intersection,
    extract_rectangles_d,
    extract_rectangles_pair,
    greedy_disjoint_supports,
    inverse2_bound,
    plant_instance,
    refine_connected,
)
from .permanent import (
    CombMatrix,
    fk_zero_test,
    permanent,
    pi_value,
    reduced_permanent_check,
    sophisticated_bound,
)
from .wht import IntFunction, SpectrumTable, inverse_wht, large_spectrum, spectrum_of_set, wht

__version__ = "0.1.0"
