"""semilat: maximal-chain matching and projectivity in semimodular join
semilattices, with a brute-force oracle, lattice generators, and a
composition-series application for finite groups."""

from .errors import (
    ChainLengthMismatchError,
    GroupValidationError,
    InternalInvariantError,
    MissingBoundsError,
    NoJoinError,
    NoMeetError,
    NotAChainError,
    NotJoinSemilatticeError,
    NotMaximalChainError,
    NotPrimeIntervalError,
    NotSemimodularError,
    PosetConstructionError,
    PreconditionError,
    SemilatError,
    SizeLimitError,
    UnknownElementError,
    UnknownNameError,
)
from .poset import Chain, Poset, from_dict, load_poset, save_poset
from .semilattice import (
    SemimodularityReport,
    count_maximal_chains,
    extend_to_maximal_chain,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    join,
    maximal_chains,
    meet,
)
from .projectivity import (
    PrimeInterval,
    ProjectivityWitness,
    compose_up,
    lattice_up_projective,
    prime_up_projective,
    updown_projective,
)
from .matching import MatchingCheck, MatchingResult, RecursionFrame, jh_match, verify_matching
from .oracle import (
    CheckEntry,
    ProjectivityRelation,
    TheoremReport,
    check_pairs,
    check_theorem,
    count_consistent_permutations,
    interval_updown_witness,
    projectivity_relation,
)
from .generators import (
    Graph,
    boolean_lattice,
    chain_product,
    graphic_flat_lattice,
    named_counterexample,
    partition_lattice,
    random_maximal_chain,
)
from .groups import (
    CompositionReport,
    Group,
    SeriesPair,
    Subgroup,
    all_subgroups,
    builtin_group,
    composition_analysis,
    group_from_table,
    is_subnormal,
    load_group,
    match_series,
    normal_closure,
    save_group,
    subnormal_lattice,
)
from .dot import export_dot

__all__ = [name for name in dir() if not name.startswith("_")]
