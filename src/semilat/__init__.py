"""semilat: maximal-chain matching and projectivity in semimodular join
semilattices, with a brute-force oracle, lattice generators, and a
composition-series application for finite groups."""

from .errors import (
    ChainLengthMismatchError,
    GroupValidationError,
    InternalInvariantError,
    MissingBoundsError,
    NoJoinError,
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
from .poset import Poset, from_dict, load_poset, save_poset
from .semilattice import (
    SemimodularityReport,
    count_maximal_chains,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    join,
    maximal_chains,
    meet,
)
from .projectivity import prime_up_projective
from .matching import (
    MatchingCheck,
    MatchingResult,
    RecursionFrame,
    jh_match,
    match_index_chains,
    verify_matching,
)
from .oracle import (
    CheckEntry,
    ProjectivityRelation,
    TheoremReport,
    check_index_pairs,
    check_pairs,
    check_theorem,
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
    all_subgroups,
    builtin_group,
    composition_analysis,
    group_from_table,
    load_group,
    save_group,
    subgroup_name,
    subnormal_lattice,
)
from .dot import export_dot

__all__ = [name for name in dir() if not name.startswith("_")]
