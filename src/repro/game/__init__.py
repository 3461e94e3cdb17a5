"""Game-theoretic core: selfish users on a shared switch.

Implements the machinery of Sections 3.2 and 4: best responses, Nash
equilibria (existence, computation, uniqueness search), Pareto
optimality (weighted-sum frontier and FDC residuals), envy-freeness,
Stackelberg leadership, Newton relaxation dynamics and the relaxation
matrix, generalized hill climbing (iterated elimination of dominated
rates), revelation mechanisms, and protectiveness.

Large populations go through the symmetry-class reduction
(:mod:`repro.game.classes`) and its N→∞ limit
(:mod:`repro.game.meanfield`): K-class solves at O(K) per step with
expansion certificates back in the exact N-user game.
"""

from repro.game.best_response import best_response, best_response_map
from repro.game.classes import (
    ClassNashResult,
    ClassProfile,
    class_best_response,
    detect_classes,
    solve_nash_classes,
    solve_nash_classes_fdc,
)
from repro.game.meanfield import (
    meanfield_error,
    solve_nash_meanfield,
)
from repro.game.nash import (
    NashResult,
    find_all_nash,
    is_nash,
    solve_nash,
    solve_nash_fdc,
    solve_nash_many,
)
from repro.game.pareto import (
    ConstraintAdapter,
    ParetoResult,
    is_pareto_fdc,
    pareto_fdc_residuals,
    pareto_improvement,
    solve_weighted_pareto,
)
from repro.game.envy import (
    envy_matrix,
    max_envy,
    unilateral_envy,
)
from repro.game.stackelberg import (
    StackelbergResult,
    follower_equilibrium,
    leader_advantage,
    solve_stackelberg,
)
from repro.game.dynamics import (
    NewtonTrajectory,
    fdc_residuals,
    fifo_linear_eigenvalue,
    is_nilpotent,
    newton_step,
    relaxation_matrix,
    run_newton_dynamics,
)
from repro.game.learning import (
    AutomataResult,
    EliminationResult,
    iterated_elimination,
    learning_automata,
    stochastic_better_reply,
)
from repro.game.revelation import (
    MechanismOutcome,
    misreport_gain,
    nash_mechanism,
)
from repro.game.protection import (
    ProtectionReport,
    protection_bound,
    verify_protective,
    worst_case_congestion,
)

__all__ = [
    "best_response",
    "best_response_map",
    "ClassNashResult",
    "ClassProfile",
    "class_best_response",
    "detect_classes",
    "solve_nash_classes",
    "solve_nash_classes_fdc",
    "meanfield_error",
    "solve_nash_meanfield",
    "NashResult",
    "solve_nash",
    "solve_nash_fdc",
    "solve_nash_many",
    "find_all_nash",
    "is_nash",
    "ConstraintAdapter",
    "ParetoResult",
    "pareto_fdc_residuals",
    "is_pareto_fdc",
    "solve_weighted_pareto",
    "pareto_improvement",
    "envy_matrix",
    "max_envy",
    "unilateral_envy",
    "StackelbergResult",
    "follower_equilibrium",
    "solve_stackelberg",
    "leader_advantage",
    "NewtonTrajectory",
    "fdc_residuals",
    "relaxation_matrix",
    "newton_step",
    "run_newton_dynamics",
    "is_nilpotent",
    "fifo_linear_eigenvalue",
    "EliminationResult",
    "iterated_elimination",
    "learning_automata",
    "AutomataResult",
    "stochastic_better_reply",
    "MechanismOutcome",
    "nash_mechanism",
    "misreport_gain",
    "ProtectionReport",
    "protection_bound",
    "worst_case_congestion",
    "verify_protective",
]
