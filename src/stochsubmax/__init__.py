"""Adaptive stochastic submodular maximization under inner and outer constraints.

Two-phase pipeline: a measured continuous greedy over a time-indexed
relaxation, followed by contention-resolution rounding into an executable
adaptive policy whose realized spending never exceeds the budget and whose
selected set always stays in the outer family. Exact brute-force oracles and
seeded statistical estimators certify every piece at desk scale.
"""

from .constraints import (
    OuterConstraint,
    cardinality,
    in_scaled_polytope,
    is_independent,
    partition,
    polytope_inequalities,
)
from .errors import (
    EnumerationLimitError,
    LpCertificateError,
    LpStallError,
)
from .extensions import multilinear_mc
from .greedy import (
    CertificationReport,
    SlotSolution,
    certify_solution,
    estimate_marginal_gains,
    load_solution,
    run_continuous_greedy,
    save_solution,
)
from .lattice import (
    ConcaveOverModular,
    ThresholdCoverage,
    UtilityOracle,
    WeightedModular,
    check_lattice_submodular,
    check_monotone,
    make_utility,
)
from .lp import (
    SlotProgram,
    build_slot_program,
    certify_optimal,
    program_dump,
    simplex_max,
    solve_lp,
)
from .model import (
    Instance,
    ItemModel,
    expected_truncated_cost,
    instance_from_json,
    instance_to_json,
    load_instance,
    sample_realization,
    save_instance,
    validate_instance,
)
from .oracle import OracleResult, optimal_policy_value
from .policy import (
    PolicyTrace,
    SimulationSummary,
    coupled_dominance_check,
    execute,
    simulate_batch,
)
from .rounding import (
    BalancedCrs,
    CrsEstimate,
    closed_form_keep_rate,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    exact_set_keep_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
