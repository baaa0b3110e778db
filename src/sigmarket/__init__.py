"""Solver and verifier library for the school signaling-design game.

Schools commit to attendance fees and effort-monitoring policies; privately
informed students pick a school and an effort; a competitive labor market
pays posterior expected productivity.  The package constructs refined
equilibria of every signaling subgame, solves the monopoly and competition
design games in closed form, audits deviations, accounts welfare, and checks
everything against a brute-force oracle on small instances.
"""

from .errors import (
    InputError,
    InvariantViolation,
    NumericError,
    RangeError,
    SigMarketError,
)
from .market import (
    HIGH,
    LOW,
    CostFamily,
    MarketParams,
    bayes_high,
    expected_type,
    low_per_high,
    max_welfare,
    posterior_mean,
    riley_effort,
    wage_offer,
)
from .monitoring import (
    Policy,
    PolicyProfile,
    Signal,
    StepMonitoringPolicy,
    reduce_minimal,
)
from .outer import (
    AuditReport,
    BoundCertificate,
    CreditFamily,
    DeviationGrid,
    EquilibriumOutcome,
    FamilyResult,
    FeeInterval,
    FeeSet,
    FierceVerdict,
    WelfareReport,
    credit_monopoly_rpbe,
    deviation_audit,
    is_fierce,
    mild_fee_set,
    monopoly_rpbe,
    outcome_csv_row,
    riley_rpbe,
    semipooling_family,
    welfare,
)
from .refinement import (
    D1WageSets,
    VerificationReport,
    WageInterval,
    brute_force_equilibria,
    check_minimality,
    d1_wage_sets,
    outcome_equivalent,
    strictly_included,
    verify_extended_d1,
    verify_pbe,
)
from .subgame import (
    BeliefSystem,
    FrontierReport,
    PopulationStrategy,
    StrategyAtom,
    SubgameEquilibrium,
    WageSchedule,
    construct_epbe,
    mimic_frontier,
    reservation,
)

__version__ = "0.1.0"

# The imports above are the one list of exports: every name they bind,
# except the submodule objects (errors, market, ...) that they bind too.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and type(value) is not type(errors))
