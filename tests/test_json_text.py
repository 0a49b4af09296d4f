"""The package's JSON writer against `json.dumps(x, indent=2, sort_keys=True)`.

Every `--json` stdout and every written poset or group file goes through
`poset._json_text`, so it must return exactly the text `json.dumps` returns.
A `_Rows` value (an array written from rows under one template, or from its
items' text) must read as the list of its items, each expanded here without
the writer's template.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

from conftest import DATA
from semilat import cli, maximal_chains, save_poset
from semilat.poset import _json_text, _Rows
from strategies import GENERATED

STRINGS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\n\t\r\b\f\x00\x1f\x7f", "é", " ", "😀", ""])
INTS = st.integers(-2**70, 2**70) | st.sampled_from([0, 1, -1, 10**40, -10**40])
SCALARS = STRINGS | INTS | st.sampled_from([True, False, None, 0, 1]) | st.floats()


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.lists(INTS, max_size=4)
            | st.dictionaries(STRINGS, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3))


VALUES = st.recursive(SCALARS, _containers, max_leaves=12)


def dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def expanded(x):
    """`x` with every `_Rows` replaced by its items: the marker with each
    string "%k" read as value k of the row, an int or the value of a JSON text;
    or, where the rows are a str, the items that text holds."""
    if type(x) is _Rows:
        if type(x.rows) is str:
            return json.loads(f"[{x.rows}]")
        return [fill(x.marker, row) for row in x.rows]
    if isinstance(x, dict):
        return {k: expanded(v) for k, v in x.items()}
    return [expanded(v) for v in x] if isinstance(x, (list, tuple)) else x


def fill(marker, row):
    if isinstance(marker, str):
        value = row[int(marker[1:])]
        return value if type(value) is int else json.loads(value)
    if isinstance(marker, dict):
        return {k: fill(v, row) for k, v in marker.items()}
    return [fill(v, row) for v in marker]


@st.composite
def rows_values(draw):
    """A `_Rows` under a random marker of dicts and lists at a random depth:
    each of its m slots "%k" used once, rows of ints and JSON texts."""
    m = draw(st.integers(1, 6))
    slots = draw(st.permutations([f"%{k}" for k in range(m)]))
    keys = st.text("abc_", min_size=1, max_size=3)
    marker = slots[0]
    for slot in slots[1:]:
        marker = draw(st.sampled_from([[marker, slot], [slot, marker], {"k": marker, "a": slot}]))
        marker = draw(st.one_of(st.just(marker), keys.map(lambda k, v=marker: {k: v})))
    row = st.tuples(*[INTS | st.sampled_from(["true", "false", "null"])] * m)
    value = _Rows(marker, draw(st.lists(row, max_size=4)))
    return draw(st.sampled_from([value, [value], {"pairs": value, "b": 1}, [[1], {"x": value}]]))


@settings(GENERATED, max_examples=40)
@given(rows_values())
def test_rows_equal_their_items(value):
    assert _json_text(value) == dumps(expanded(value))


@settings(GENERATED, max_examples=40)
@given(VALUES)
@example({"a": [1, 2], "b": [[1, 2], (1, 2)], "c": {"d": [1, 2]}})
@example([[3, -1], [3, -1], [[3, -1]]])   # one int list twice at one depth, once deeper
@example([True, 1, 1.0, False, 0, 0.0, None, [], {}, (), [True, 1], [0, False]])
@example({"z": {}, "y": [], "": [[]], "x": 1.5, "w": [float("nan"), -0.0, 1e300]})
def test_writer_equals_json_dumps(value):
    assert _json_text(value) == dumps(value)


def test_every_json_payload_equals_json_dumps(small_corpus, run_cli, tmp_path, monkeypatch):
    """Each `--json` subcommand's payload on the small corpus, written both ways."""
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return _json_text(payload)

    monkeypatch.setattr(cli, "_json_text", recording)
    for k, p in enumerate(small_corpus):
        path = str(tmp_path / f"p{k}.json")
        save_poset(p, path)
        chains = [",".join(c) for c in maximal_chains(p)]
        argvs = [["validate", path], ["chains", path], ["chains", path, "--count"],
                 ["match", path, "--chain-a", chains[0], "--chain-b", chains[-1], "--trace"],
                 ["verify", path, "--samples", "2", "--full"]]
        covers = p.cover_pairs()
        if covers:
            argvs.append(["project", path, "--source", ",".join(covers[0]),
                          "--target", ",".join(covers[-1])])
        for argv in argvs:
            assert run_cli(*argv, "--json")[0] == 0, argv
    for argv in (["group", "subgroups", str(DATA / "a4.json")],
                 ["group", "composition", str(DATA / "z12.json")],
                 ["validate", str(DATA / "n5.json")]):
        run_cli(*argv, "--json")
    assert len(payloads) == 5 * len(small_corpus) + sum(len(p) > 1 for p in small_corpus) + 3
    for payload in payloads:
        assert _json_text(payload) == dumps(expanded(payload))
