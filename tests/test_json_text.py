"""The package's JSON writer against `json.dumps(x, indent=2, sort_keys=True)`.

Every `--json` stdout and every written poset or group file goes through
`poset._json_text`, so it must return exactly the text `json.dumps` returns.
A `_Rows` value (an array whose items are already text) must read as the
list of the items that text holds.
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
# Values that read back as themselves: no tuples, no keys but strings.
JSON_VALUES = st.recursive(SCALARS, lambda c: st.lists(c, max_size=4)
                           | st.dictionaries(STRINGS, c, max_size=4), max_leaves=8)


def dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def expanded(x):
    """`x` with every `_Rows` replaced by the items its text holds."""
    if type(x) is _Rows:
        return json.loads(f"[{x.items}]")
    if isinstance(x, dict):
        return {k: expanded(v) for k, v in x.items()}
    return [expanded(v) for v in x] if isinstance(x, (list, tuple)) else x


# Where a drawn `_Rows` sits, and the depth of its items there.
PLACES = [(lambda r: r, 1), (lambda r: [r], 2), (lambda r: {"pairs": r, "b": 1}, 2),
          (lambda r: [[1], {"x": r}], 3)]


@st.composite
def rows_values(draw):
    """A `_Rows` of up to four values at a drawn place, each item written for
    its depth there and joined by commas, as its callers write them."""
    place, depth = draw(st.sampled_from(PLACES))
    items = draw(st.lists(JSON_VALUES, max_size=4))
    return place(_Rows((",\n" + "  " * depth).join(_Rows.text(v, depth) for v in items)))


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
