"""Exact desk-scale toolkit for additive combinatorics over F_2^n."""

from .bench import (
    BoundReport,
    check_bombieri,
    check_greedy_support,
    check_holder,
    check_inverse2,
    check_pi,
    check_sophisticated,
    check_subadditivity,
)
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
    energy_bruteforce,
    energy_function,
    energy_multiset,
    energy_spectral,
)
from .exact import ExactnessError
from .inverse import (
    ConnectednessParams,
    InverseParams,
    Rectangle,
    extract_rectangles_d,
    extract_rectangles_pair,
    greedy_disjoint_supports,
    plant_instance,
    refine_connected,
)
from .permanent import (
    CombMatrix,
    fk_zero_test,
    permanent,
    reduced_permanent_check,
)
from .wht import IntFunction, inverse_wht, large_spectrum, spectrum_of_set, wht

__version__ = "0.1.0"
