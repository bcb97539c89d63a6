"""Exact potential theory on finite kernel spaces.

Minimax potential levels, rendezvous values, Chebyshev constants,
extremal energies, equilibrium and invariant measures, and spectral
negative-type tests — all with explicit certificates and tolerances.
"""
from types import ModuleType as _ModuleType

from .chebyshev import (
    ChebyshevTable,
    ChebyshevWitness,
    chebyshev_limit_bounds,
    chebyshev_n,
    chebyshev_table,
    dual_chebyshev_n,
    multiset_count,
    rendezvous_n,
)
from .core import (
    AsymmetricKernelError,
    CapExceededError,
    ConstantTooSmallError,
    DimensionMismatchError,
    DisconnectedAfterRetriesError,
    DualMismatchError,
    EmptyInputError,
    EmptySubsetError,
    EnumerationCapExceededError,
    IndexOutOfRangeError,
    InvalidMeasureError,
    KernelSpace,
    Measure,
    MetricViolationError,
    NegativeEntryError,
    NonFiniteEntryError,
    NumericalBreakdownError,
    ParseError,
    RdvError,
    SchemaError,
    SubsetPair,
    TooLargeError,
    UniquenessViolatedError,
    ValueInterval,
    dual_kernel,
    validate_kernel,
)
from .energy import (
    DualEquilibrium,
    EnergyResult,
    FrostmanReport,
    WolfReport,
    dual_equilibrium,
    dual_route_check,
    frostman_check,
    maximal_energy,
    wiener_energy,
    wolf_relations,
)
from .minimax import (
    AverageResult,
    ChainReport,
    EltonMeasures,
    average_interval,
    elton_measures,
    inequality_chain,
    min_invariance_gap,
    q_lower_value,
    q_value,
    rendezvous_number,
)
from .potential import PotentialProfile, energy, potential_at, profile
from .report import AnalysisReport
from .spaces import (
    SpaceDescriptor,
    circle,
    generate,
    hypercube,
    interval_grid,
    load_report,
    load_space,
    load_space_file,
    point_cap,
    random_graph,
    report_to_csv,
    save_report,
    save_space,
    space_to_document,
)
from .structure import (
    ConverseReport,
    InvarianceResult,
    NegativeTypeCertificate,
    QuasiReport,
    converse_check,
    invariant_measure,
    negative_type_test,
    quasi_invariant_convergence,
)
from .suites import SuiteReport, run_suite, run_suites

__version__ = "0.1.0"

# the public API is every name imported above; the submodules are not part of it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
