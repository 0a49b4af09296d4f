"""Every public function that reads a poset, a chain, an interval, a pair list, an
integer, a graph, a group, a group table or a matching result refuses a
malformed one with the package's own error, never a bare TypeError,
ValueError, IndexError or AttributeError; and the argument checks run in the
order the callers rely on."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semilat import (
    Graph,
    GroupValidationError,
    NotAChainError,
    NotMaximalChainError,
    NotPrimeIntervalError,
    PosetConstructionError,
    PreconditionError,
    SemilatError,
    UnknownElementError,
    UnknownNameError,
    all_subgroups,
    boolean_lattice,
    builtin_group,
    chain_product,
    check_index_pairs,
    check_pairs,
    check_theorem,
    composition_analysis,
    count_maximal_chains,
    export_dot,
    from_dict,
    graphic_flat_lattice,
    group_from_table,
    interval_updown_witness,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    jh_match,
    join,
    match_index_chains,
    maximal_chains,
    meet,
    named_counterexample,
    partition_lattice,
    prime_up_projective,
    projectivity_relation,
    random_maximal_chain,
    save_poset,
    subnormal_lattice,
    verify_matching,
)
from semilat.groups import group_from_dict
from lattice_form import lattice_up_projective
from strategies import GENERATED

B3 = boolean_lattice(3)
CHAIN, OTHER = ("000", "100", "110", "111"), ("000", "010", "011", "111")
SOURCE, WITNESS = ("000", "100"), ("010", "110")
RESULT = jh_match(B3, CHAIN, OTHER)
ROW, OTHER_ROW = (np.array([[B3.index(e) for e in c]]) for c in (CHAIN, OTHER))
ROWS, FIRST, SECOND = np.vstack([ROW, OTHER_ROW]), np.array([0]), np.array([1])
Z12 = builtin_group("Z12")
SERIES = maximal_chains(subnormal_lattice(Z12))[0]

NON_ITERABLE = st.one_of(st.integers(), st.floats(), st.none(), st.booleans(), st.builds(object),
                         st.just(np.array(5)))   # a 0-d array has __iter__ but cannot iterate
NOT_AN_INT = st.one_of(st.floats(), st.text(max_size=3), st.none())
# Names of neither B3 nor the subnormal lattice of Z12, unhashable ones too.
UNKNOWN = st.one_of(st.text("xyz", max_size=3), st.integers(), st.none(),
                    st.lists(st.text(max_size=1), max_size=1))


def shorter(base: tuple) -> st.SearchStrategy:
    """A proper prefix of `base`: not maximal, of another length, or empty."""
    return st.integers(0, len(base) - 1).map(lambda k: base[:k])


def not_two(pair: tuple) -> st.SearchStrategy:
    """`pair` cut short or run long."""
    return st.one_of(shorter(pair), st.lists(st.sampled_from(pair), min_size=3, max_size=4))


def unknown(base: tuple) -> st.SearchStrategy:
    """`base` with one name replaced by one it does not know."""
    return st.tuples(st.integers(0, len(base) - 1), UNKNOWN).map(
        lambda t: base[:t[0]] + (t[1],) + base[t[0] + 1:])


def sequences(base: tuple, length=shorter) -> dict:
    """The malformed forms of a chain or pair whose length the call requires."""
    return {"non-iterable": NON_ITERABLE, "wrong-length": length(base), "unknown-name": unknown(base)}


def chain(base: tuple) -> dict:
    """The malformed forms of a chain of any length."""
    return {"non-iterable": NON_ITERABLE, "unknown-name": unknown(base)}


# Anything but a Group, a poset and an integer among them.
NOT_A_GROUP = {"not-a-group": st.one_of(NON_ITERABLE, st.text(max_size=3), st.just(B3))}
# Anything but a Poset, a group among them.
NOT_A_POSET = {"not-a-poset": st.one_of(NON_ITERABLE, st.text(max_size=3), st.just(Z12))}
# The error each kind of malformed argument must raise, where narrower than SemilatError.
KIND_ERRORS = {"not-a-group": PreconditionError, "not-a-poset": PreconditionError,
               "not-an-index-array": PreconditionError, "index-outside": UnknownElementError,
               "id-outside": PreconditionError}


def index_arrays(base: np.ndarray) -> st.SearchStrategy:
    """Anything but an integer array with as many dimensions as base: no
    array, its list, its floats, and one dimension more or less."""
    return st.one_of(NON_ITERABLE, st.sampled_from([base.tolist(), base.astype(float),
                                                    base[None], base[0]]))


# Each slot: a call with the value in one argument, a value it accepts there,
# and the malformed forms it must refuse.
SLOTS = {
    "Poset.chain": (B3.chain, CHAIN, {**chain(CHAIN), "wrong-length": st.just(())}),
    "is_maximal_chain": (lambda v: is_maximal_chain(B3, v), CHAIN, chain(CHAIN)),
    "maximal_chains-limit": (lambda v: maximal_chains(B3, limit=v), 3,   # None is no limit
                             {"not-an-int": NOT_AN_INT.filter(lambda v: v is not None)}),
    "jh_match-a": (lambda v: jh_match(B3, v, OTHER), CHAIN, sequences(CHAIN)),
    "jh_match-b": (lambda v: jh_match(B3, CHAIN, v), OTHER, sequences(OTHER)),
    "verify_matching-a": (lambda v: verify_matching(B3, v, OTHER, RESULT), CHAIN, chain(CHAIN)),
    "verify_matching-b": (lambda v: verify_matching(B3, CHAIN, v, RESULT), OTHER, chain(OTHER)),
    "verify_matching-result": (lambda v: verify_matching(B3, CHAIN, OTHER, v), RESULT,
                               {"not-a-result": NON_ITERABLE}),
    "prime_up_projective-source": (lambda v: prime_up_projective(B3, v, WITNESS), SOURCE,
                                   sequences(SOURCE, not_two)),
    "prime_up_projective-witness": (lambda v: prime_up_projective(B3, SOURCE, v), WITNESS,
                                    sequences(WITNESS, not_two)),
    # The lattice form is the tests' reference (lattice_form.py); it reads
    # source and witness as the prime form does.
    "lattice_up_projective-source": (lambda v: lattice_up_projective(B3, v, WITNESS), SOURCE,
                                     sequences(SOURCE, not_two)),
    "lattice_up_projective-witness": (lambda v: lattice_up_projective(B3, SOURCE, v), WITNESS,
                                      sequences(WITNESS, not_two)),
    "interval_updown_witness-source": (lambda v: interval_updown_witness(B3, v, WITNESS), SOURCE,
                                       sequences(SOURCE, not_two)),
    "interval_updown_witness-target": (lambda v: interval_updown_witness(B3, SOURCE, v), WITNESS,
                                       sequences(WITNESS, not_two)),
    "projectivity_relation-a": (lambda v: projectivity_relation(B3, v, OTHER), CHAIN,
                                sequences(CHAIN)),
    "projectivity_relation-b": (lambda v: projectivity_relation(B3, CHAIN, v), OTHER,
                                sequences(OTHER)),
    "check_pairs-pairs": (lambda v: check_pairs(B3, v), [(CHAIN, OTHER)],
                          {"non-iterable": NON_ITERABLE}),
    "check_pairs-pair": (lambda v: check_pairs(B3, [v]), (CHAIN, OTHER),
                         {"non-iterable": NON_ITERABLE, "wrong-length": not_two((CHAIN, OTHER))}),
    "check_pairs-chain": (lambda v: check_pairs(B3, [(CHAIN, v)]), OTHER, chain(OTHER)),
    "check_index_pairs-X": (lambda v: check_index_pairs(B3, v, FIRST, SECOND), ROWS,
                            {"not-an-index-array": st.one_of(index_arrays(ROWS),
                                                             st.just(ROWS[:, :0])),
                             "index-outside": st.sampled_from([-1, 8]).map(
                                 lambda v: np.vstack([ROWS, [[0, 1, 3, v]]]))}),
    "check_index_pairs-first": (lambda v: check_index_pairs(B3, ROWS, v, SECOND), FIRST,
                                {"not-an-index-array": st.one_of(index_arrays(FIRST),
                                                                 st.just(np.array([0, 1]))),
                                 "id-outside": st.sampled_from([[-1], [2]]).map(np.array)}),
    "check_index_pairs-second": (lambda v: check_index_pairs(B3, ROWS, FIRST, v), SECOND,
                                 {"not-an-index-array": st.one_of(index_arrays(SECOND),
                                                                  st.just(np.array([], dtype=int))),
                                  "id-outside": st.sampled_from([[-1], [2]]).map(np.array)}),
    "export_dot-a": (lambda v: export_dot(B3, v, OTHER), CHAIN,   # None highlights nothing
                     {**chain(CHAIN), "non-iterable": NON_ITERABLE.filter(lambda v: v is not None)}),
    "export_dot-b": (lambda v: export_dot(B3, CHAIN, v), OTHER,
                     {**chain(OTHER), "non-iterable": NON_ITERABLE.filter(lambda v: v is not None)}),
    "export_dot-witness": (
        lambda v: export_dot(B3, CHAIN, OTHER, replace(RESULT, witnesses=(v,) + RESULT.witnesses[1:])),
        RESULT.witnesses[0], sequences(RESULT.witnesses[0], not_two)),
    "export_dot-matching": (lambda v: export_dot(B3, CHAIN, OTHER, v), RESULT,   # None: no matching
                            {"not-a-result": NON_ITERABLE.filter(lambda v: v is not None)}),
    "composition_analysis-a": (lambda v: composition_analysis(Z12, v, SERIES), SERIES,
                               sequences(SERIES)),
    "composition_analysis-b": (lambda v: composition_analysis(Z12, SERIES, v), SERIES,
                               sequences(SERIES)),
    "all_subgroups": (all_subgroups, Z12, NOT_A_GROUP),
    "subnormal_lattice": (subnormal_lattice, Z12, NOT_A_GROUP),
    "composition_analysis-g": (composition_analysis, Z12, NOT_A_GROUP),
    "group_from_table": (lambda v: group_from_table("t", v), [[0, 1], [1, 0]],
                         {"non-iterable": NON_ITERABLE}),
    "builtin_group": (builtin_group, "Z2", {"unknown-name": UNKNOWN}),
    "boolean_lattice": (boolean_lattice, 2, {"not-an-int": NOT_AN_INT}),
    "partition_lattice": (partition_lattice, 3, {"not-an-int": NOT_AN_INT}),
    "chain_product": (chain_product, [2, 3], {"non-iterable": NON_ITERABLE,
                                              "wrong-length": st.just([]),
                                              "not-an-int": NOT_AN_INT.map(lambda v: [2, v])}),
    "Graph-vertices": (lambda v: Graph(v, ()), 3, {"not-an-int": NOT_AN_INT}),
    "Graph-edges": (lambda v: Graph(3, v), [(0, 1)], {"non-iterable": NON_ITERABLE}),
    "Graph-edge": (lambda v: Graph(3, [v]), (0, 1), {"non-iterable": NON_ITERABLE,
                                                     "wrong-length": not_two((0, 1)),
                                                     "not-an-int": NOT_AN_INT.map(lambda v: (0, v))}),
    "graphic_flat_lattice": (graphic_flat_lattice, Graph(3, [(0, 1)]),
                             {"non-iterable": NON_ITERABLE}),
    "random_maximal_chain-seed": (lambda v: random_maximal_chain(B3, v), 0,
                                  {"not-an-int": NOT_AN_INT}),
    "named_counterexample": (named_counterexample, "n5", {"unknown-name": UNKNOWN}),
    # The poset argument of each public function that takes one.
    "join-p": (lambda v: join(v, *SOURCE), B3, NOT_A_POSET),
    "meet-p": (lambda v: meet(v, *SOURCE), B3, NOT_A_POSET),
    "is_join_semilattice": (is_join_semilattice, B3, NOT_A_POSET),
    "is_semimodular": (is_semimodular, B3, NOT_A_POSET),
    "is_maximal_chain-p": (lambda v: is_maximal_chain(v, CHAIN), B3, NOT_A_POSET),
    "maximal_chains": (maximal_chains, B3, NOT_A_POSET),
    "count_maximal_chains": (count_maximal_chains, B3, NOT_A_POSET),
    "prime_up_projective-p": (lambda v: prime_up_projective(v, SOURCE, WITNESS), B3, NOT_A_POSET),
    "match_index_chains-p": (lambda v: match_index_chains(v, ROW, OTHER_ROW), B3, NOT_A_POSET),
    "jh_match-p": (lambda v: jh_match(v, CHAIN, OTHER), B3, NOT_A_POSET),
    "verify_matching-p": (lambda v: verify_matching(v, CHAIN, OTHER, RESULT), B3, NOT_A_POSET),
    "interval_updown_witness-p": (lambda v: interval_updown_witness(v, SOURCE, WITNESS), B3,
                                  NOT_A_POSET),
    "projectivity_relation-p": (lambda v: projectivity_relation(v, CHAIN, OTHER), B3, NOT_A_POSET),
    "check_pairs-p": (lambda v: check_pairs(v, [(CHAIN, OTHER)]), B3, NOT_A_POSET),
    "check_index_pairs-p": (lambda v: check_index_pairs(v, ROWS, FIRST, SECOND), B3, NOT_A_POSET),
    "check_theorem-p": (lambda v: check_theorem(v, CHAIN, OTHER), B3, NOT_A_POSET),
    "random_maximal_chain-p": (lambda v: random_maximal_chain(v, 0), B3, NOT_A_POSET),
    "export_dot-p": (lambda v: export_dot(v, CHAIN, OTHER, RESULT), B3, NOT_A_POSET),
    "save_poset-p": (lambda v: save_poset(v, os.devnull), B3, NOT_A_POSET),
}
CASES = [pytest.param(call, values, KIND_ERRORS.get(kind, SemilatError), id=f"{slot}-{kind}")
         for slot, (call, _, forms) in SLOTS.items() for kind, values in forms.items()]


@pytest.mark.parametrize("call, valid", [(call, valid) for call, valid, _ in SLOTS.values()],
                         ids=list(SLOTS))
def test_the_well_formed_argument_is_accepted(call, valid):
    call(valid)   # so each refusal below is the malformed argument's


@pytest.mark.parametrize("call, values, error", CASES)
@settings(GENERATED, max_examples=8)
@given(data=st.data())
def test_malformed_argument_raises_a_package_error(call, values, error, data):
    bad = data.draw(values, label="argument")
    with pytest.raises(error):
        call(bad)


NON_ITERABLE_SLOTS = {slot: call for slot, (call, _, forms) in SLOTS.items() if "non-iterable" in forms}


@pytest.mark.parametrize("call", list(NON_ITERABLE_SLOTS.values()), ids=list(NON_ITERABLE_SLOTS))
def test_a_0d_array_is_refused_as_a_sequence(call):
    with pytest.raises(SemilatError):   # every slot, whatever the draws above pick
        call(np.array(5))


@pytest.mark.parametrize("call, error, message", [
    (lambda: prime_up_projective(B3, 5, SOURCE), NotPrimeIntervalError,
     r"^source and witness must be two names each: 5, \('000', '100'\)$"),
    (lambda: lattice_up_projective(B3, SOURCE, 7), NotPrimeIntervalError,
     r"^source and witness must be two names each: \('000', '100'\), 7$"),
    (lambda: maximal_chains(B3, limit="3"), PreconditionError,
     r"^limit must be an integer, got '3'$"),
    (lambda: graphic_flat_lattice(5), PreconditionError, r"^graphic flats need a Graph, got 5$"),
    (lambda: random_maximal_chain(B3, None), PreconditionError,
     r"^the seed must be an integer, got None$"),
    (lambda: prime_up_projective(B3, SOURCE, ("110", "zz")), UnknownElementError,
     r"^element 'zz' is not in poset 'B3'$"),
    (lambda: lattice_up_projective(B3, ("zz", "100"), WITNESS), UnknownElementError,
     r"^element 'zz' is not in poset 'B3'$"),
    (lambda: group_from_table("x", 5), GroupValidationError,
     r"^table must be an array of rows, got int$"),
    (lambda: builtin_group(5), UnknownNameError, r"^unknown builtin group 5$"),
    (lambda: verify_matching(B3, CHAIN, OTHER, 5), PreconditionError,
     r"^result must be a MatchingResult, got int$"),
    (lambda: export_dot(B3, None, None, 5), PreconditionError,
     r"^matching must be a MatchingResult, got int$"),
    (lambda: all_subgroups(5), PreconditionError, r"^the group must be a Group, got int$"),
    (lambda: composition_analysis(None), PreconditionError,
     r"^the group must be a Group, got NoneType$"),
    (lambda: composition_analysis(B3, (), ()), PreconditionError,
     r"^the group must be a Group, got Poset$"),
    (lambda: jh_match("x", (), ()), PreconditionError, r"^the poset must be a Poset, got str$"),
    (lambda: export_dot(Z12), PreconditionError, r"^the poset must be a Poset, got Group$"),
    (lambda: check_index_pairs(B3, ROWS[:, :0], FIRST, SECOND), PreconditionError,
     r"^X must be an integer array of shape \(R, n\+1\), n >= 0$"),
    (lambda: check_index_pairs(B3, ROWS, FIRST, np.array([1, 0])), PreconditionError,
     r"^first and second must be integer arrays of one shape \(P,\)$"),
    (lambda: check_index_pairs(B3, ROWS, np.array([0, 1, 1]), np.array([1, 2, -1])),
     PreconditionError, r"^pair 1 names a row outside 0\.\.1 of X$"),
    (lambda: check_index_pairs(B3, ROWS + 8, np.array([2]), SECOND), PreconditionError,
     r"^pair 0 names a row outside 0\.\.1 of X$"),
    (lambda: check_index_pairs(B3, np.vstack([ROWS, [[0, 1, 3, 8]]]), FIRST, SECOND),
     UnknownElementError, r"^chain \[0, 1, 3, 8\] holds an index outside 0\.\.7 of 'B3'$"),
], ids=["prime-form-int", "lattice-form-int", "limit-string", "graph-int", "seed-none",
        "prime-form-unknown-y", "lattice-form-unknown-a", "table-int", "builtin-int",
        "verify-result-int", "dot-matching-int", "group-int", "group-none",
        "group-poset-empty-subgroups", "poset-str",
        "poset-group", "rows-empty", "ids-two-shapes", "id-outside", "ids-before-indices",
        "index-outside"])
def test_refused_with_the_package_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestRefusalOrder:
    def test_jh_match_checks_names_before_the_poset(self):
        n5 = named_counterexample("n5")   # not semimodular
        with pytest.raises(UnknownElementError):
            jh_match(n5, ("0", "zz", "1"), ("0", "b", "1"))
        with pytest.raises(NotAChainError):
            jh_match(n5, ("1", "a", "0"), ("0", "zz", "1"))

    def test_series_are_both_chains_before_either_is_maximal(self):
        short = (SERIES[0], SERIES[-1])   # a chain, not maximal
        with pytest.raises(UnknownElementError):
            composition_analysis(Z12, short, SERIES[:1] + ("zz",))
        with pytest.raises(NotAChainError):
            composition_analysis(Z12, short, SERIES[::-1])
        with pytest.raises(NotMaximalChainError,
                           match=rf"^series \['0', '{SERIES[-1]}'\] is not maximal in 'subnormal\(Z12\)'$"):
            composition_analysis(Z12, SERIES, short)

    @pytest.mark.parametrize("load, error, fields", [
        (from_dict, PosetConstructionError, ("poset", {"elements": [], "covers": []})),
        (group_from_dict, GroupValidationError, ("group", {"order": 1, "table": [[0]]})),
    ], ids=["poset", "group"])
    def test_json_object_messages(self, load, error, fields):
        what, rest = fields
        for data, message in (([], f"{what} JSON must be an object"),
                              ({"name": "x"}, f"{what} JSON lacks field {next(iter(rest))!r}"),
                              (rest, f"{what} JSON lacks field 'name'"),
                              ({"name": 5, **rest}, "field 'name' must be a string")):
            with pytest.raises(error) as info:
                load(data)
            assert str(info.value) == message
