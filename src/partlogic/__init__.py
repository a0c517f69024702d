"""Finite quantum-logic toolkit.

Concrete finite quasi-orthoalgebras and the classical models that realize
them: partition logics, Boolean atlases, generalized urn models, Moore and
Mealy automata, and Foulis-Randall test spaces, with exhaustive verifiers
for every axiom system and exact (rational) state-space solving.
"""

from .atlas import (
    BooleanAtlas,
    BooleanChart,
    PropertyCheck,
    atlas_to_quasi_oa,
    compatible,
    is_manifold,
    jointly_compatible,
    jointly_orthogonal,
    orthogonal,
    pairwise_compatible,
    pairwise_orthogonal,
    quasi_oa_to_atlas,
    verify_atlas,
)
from .automata import (
    MealyAutomaton,
    MooreAutomaton,
    experiment_partition,
    partition_logic_to_mealy,
    propositional_calculus,
    run,
)
from .corpus import CorpusEntry, as_table, corpus
from .dot import render_dot
from .errors import (
    AlgebraicityError,
    AxiomViolationError,
    LogicError,
    ParseError,
    PastingError,
    PrimenessError,
    SeparationError,
    StructureError,
)
from .formats import detect_kind, parse, parse_any, serialize
from .oa import (
    AxiomReport,
    FiniteQuasiOrthoalgebra,
    GreechieDiagram,
    Violation,
    blocks,
    boolean_atoms,
    classify,
    format_label,
    from_greechie,
    is_omp,
    join,
    leq,
    mackey_decompositions,
    order_transitivity_counterexample,
    orthocomplement,
    verify_oa,
    verify_oa_golfin,
    verify_quasi_oa,
)
from .partition import (
    Isomorphism,
    PartitionLogic,
    UrnModel,
    isomorphic,
    oa_to_partition_logic,
    pasting_to_oa,
    point_evaluations,
    urn_to_partition_logic,
)
from .states import (
    PrimeIdeal,
    PrimenessResult,
    RationalState,
    StateSpaceSolution,
    TwoValuedState,
    atoms_of,
    enumerate_two_valued_states,
    is_prime,
    is_prime_ideal,
    is_state,
    prime_ideal_to_state,
    state_space_solve,
    state_to_prime_ideal,
)
from .testspace import (
    EventRelations,
    OmpConditions,
    PartitionTestSpace,
    TestSpace,
    Weight,
    completion,
    count_two_valued_weights,
    enumerate_two_valued_weights,
    event_relations,
    is_algebraic,
    is_complete,
    is_weight,
    omp_conditions,
    partition_logic_to_pts,
    pi_logic,
    pts_to_partition_logic,
    ts_to_partition_test_space,
    verify_test_space,
)

__version__ = "0.1.0"
