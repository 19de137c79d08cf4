"""Linear-time adaptive submodular maximization: sampling-based greedy
policies, an exhaustive optimal-policy oracle, and executable checkers for
the structural definitions their guarantees rest on."""

__version__ = "0.1.0"

from .core import (
    ConditionedPrior,
    CoverageUtility,
    EvalContext,
    ExplicitPrior,
    IndependentPrior,
    PSI_EMPTY,
    PartialRealization,
    TabularUtility,
    UtilityFunction,
    condition,
    consistent,
    expected_set_value,
    marginal_utility,
    sample_realization,
    subrealization,
)
from .errors import (
    AdasubError,
    InstanceTooLarge,
    ParseError,
    PolicyViolation,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .evaluation import exact_policy_value, expected_utility, policy_marginal
from .instances import (
    Instance,
    complementarity_counterexample,
    generate_coverage,
    load_instance,
    monotonicity_counterexample,
    save_instance,
)
from .oracle import OracleCaps, OracleResult, optimal_value, restricted_optimal
from .policies import (
    CardinalityConstraint,
    PartitionConstraint,
    Policy,
    PolicyTrace,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    concat,
    empty_policy,
    generalized_asg,
    locally_greedy,
    random_policy,
    run_policy,
)
from .verify import (
    CheckReport,
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
    lemma1_check,
)
