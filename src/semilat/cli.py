"""Command-line interface.

Exit codes: 0 success, 1 mathematical property violation or verification
failure, 2 usage or input error (bad flags, unreadable/malformed files,
unwritable outputs, unknown element names, which the library resolves and
`run` classifies, sizes beyond a guard).  With --json, stdout is a stable
machine-readable object; the human format makes no stability promise.
The console script ends quietly on SIGPIPE when its reader closes stdout early,
as `cat` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
from operator import attrgetter

import numpy as np

from . import generators, groups, oracle, semilattice as sl
from .dot import export_dot
from .errors import SemilatError, SizeLimitError, UnknownElementError
from .matching import jh_match
from .poset import (_NUMERAL_DIGITS, Poset, _json_text, _numeral, _Rows, _save_json, load_poset,
                    save_poset)

OK, VIOLATION, USAGE = 0, 1, 2


class _InputError(Exception):
    """Anything wrong with the invocation or its input files (exit 2)."""


def _emit_json(payload) -> None:
    print(_json_text(payload))


def _load(loader, path: str):
    """Read an input file with `loader`, mapping every failure to exit 2."""
    try:
        return loader(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path}: JSON nested too deeply to decode") from exc
    except SemilatError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _save(save, obj, path: str, what: str) -> int:
    """Write obj to path with `save` and report it; a failed write is exit 2."""
    try:
        save(obj, path)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {what} to {path}")
    return OK


def _write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cycle_form(pi) -> str:
    seen, cycles = set(), []
    for k in range(1, len(pi) + 1):
        cycle = []
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = pi[k - 1]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    p = _load(load_poset, args.poset)
    joins_ok, offending = sl.is_join_semilattice(p)
    semimod = None
    counterexample = None
    if joins_ok:
        report = sl.is_semimodular(p)
        semimod = report.holds
        counterexample = report.counterexample
    payload = {
        "name": p.name,
        "elements": len(p),
        "height": p.height(),
        "bottom": p.bottom(),
        "top": p.top(),
        "join_semilattice": joins_ok,
        "offending_pair": list(offending) if offending else None,
        "semimodular": semimod,
        "counterexample": list(counterexample) if counterexample else None,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"poset: {p.name} ({len(p)} elements, height {p.height()})")
        print(f"bottom: {p.bottom() or 'none'}    top: {p.top() or 'none'}")
        if joins_ok:
            print("join-semilattice: yes")
            print(f"semimodular: {'yes' if semimod else 'no'}")
            if not semimod:
                a, b, c = counterexample
                print(f"counterexample: {a} covered-by {b}, c = {c}")
        else:
            print(f"join-semilattice: no (pair {offending[0]}, {offending[1]})")
            print("semimodular: not applicable")
    return OK if joins_ok and semimod else VIOLATION


def _cmd_chains(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise _InputError(f"--limit must be at least 0, got {args.limit}")
    p = _load(load_poset, args.poset)
    if args.count:
        total = sl.count_maximal_chains(p)
        if args.json:
            _emit_json({"name": p.name, "count": total})
        else:
            print(total)
        return OK
    chains = sl.maximal_chains(p, limit=args.limit)
    if args.json:
        _emit_json({"name": p.name, "chains": [list(c) for c in chains]})
    else:
        for c in chains:
            print(",".join(c))
    return OK


def _cmd_match(args) -> int:
    p = _load(load_poset, args.poset)
    chain_a, chain_b = args.chain_a.split(","), args.chain_b.split(",")
    result = jh_match(p, chain_a, chain_b, keep_trace=args.trace)
    if args.json:
        payload = result.to_dict()
        payload.update({"poset": p.name, "chain_a": chain_a, "chain_b": chain_b})
        _emit_json(payload)
        return OK
    print(f"n: {result.n}")
    print(f"pi (one-line): {list(result.pi)}")
    print(f"pi (cycles): {_cycle_form(result.pi)}")
    for i in range(1, result.n + 1):
        j = result.pi[i - 1]
        x, y = result.witnesses[i - 1]
        print(f"interval {i} [{chain_a[i - 1]}, {chain_a[i]}] -> "
              f"interval {j} [{chain_b[j - 1]}, {chain_b[j]}]  witness ({x}, {y})")
    if result.trace is not None:
        for frame in result.trace:
            print(f"level {frame.level}: l = {frame.l}, "
                  f"lifted chain {','.join(frame.lifted_chain)}, "
                  f"sigma {{{', '.join(f'{i}->{s}' for i, s in frame.sigma)}}}")
    return OK


def _cmd_project(args) -> int:
    p = _load(load_poset, args.poset)
    source, target = args.source.split(","), args.target.split(",")
    if len(source) != 2 or len(target) != 2:
        raise _InputError("--source and --target each need exactly two elements")
    witness = oracle.interval_updown_witness(p, source, target)
    if args.json:
        _emit_json({
            "poset": p.name,
            "source": source,
            "target": target,
            "witness": list(witness) if witness else None,
        })
    else:
        print(",".join(witness) if witness else "none")
    return OK


_AT = 3   # the depth of a pair's fields: inside the payload, its reports and the pair
# One pair's object in `verify --json`, a %-template of its chains' and its
# report's JSON texts; its fields, and so its slots, are in sorted-key order.
_REPORT = _Rows.text(dict.fromkeys(("chain_a", "chain_b", "entries", "ok"), "%s"),
                     _AT - 1).replace('"%s"', "%s")


def _report_rows(p: Poset, rows: list, pairs: list, reports: list) -> _Rows:
    """The `verify --json` reports: pair k is (rows[a], rows[b]) for (a, b) =
    pairs[k], with reports[k]; the text of each distinct chain and report is
    written once."""
    names = p.elements
    chains = {row: _Rows.text([names[i] for i in row], _AT) for row in set(rows)}
    texts = [chains[row] for row in rows]
    distinct = {id(r): r for r in reports}
    written = {key: (_Rows.text([e.to_dict() for e in r.entries], _AT), _Rows.text(r.ok, _AT))
               for key, r in distinct.items()}
    return _Rows((",\n" + "  " * (_AT - 1)).join(
        [_REPORT % (texts[a], texts[b], *written[id(r)]) for (a, b), r in zip(pairs, reports)]))


# A pair seed past this has too many digits to write; built once, as the power is slow.
_SEED_BOUND = 10 ** _NUMERAL_DIGITS


def _cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise _InputError(f"--samples must be at least 1, got {args.samples}")
    p = _load(load_poset, args.poset)
    pair_seeds = None
    # Default policy: exhaustive when the ordered-pair count is modest,
    # otherwise 200 seeded samples.  Explicit flags override.  Drawn samples
    # need no chain count, only the bounds it would have checked first.
    if args.samples is not None:
        sl._require_bounds(p)
        exhaustive, count = False, args.samples
    else:
        chain_count = sl.count_maximal_chains(p)
        exhaustive = args.all_pairs or chain_count ** 2 <= 5000
        count = chain_count ** 2 if exhaustive else 200
    sl._check_pair_count(count)
    oracle._charge_maximal_pairs(p, count)   # before any chain is enumerated or drawn
    # The chains as index rows; pair k is (rows[first[k]], rows[second[k]]).
    if exhaustive:
        rows = list(sl._chain_rows(p, limit=chain_count))   # all of them, not counted again
        first = np.repeat(np.arange(chain_count), chain_count)
        second = np.tile(np.arange(chain_count), chain_count)
        mode = "all-pairs"
    else:
        # Seeded cover walks; the pair seeds are reported, so each must be a
        # numeral that can be written.
        base = args.seed * 1000003
        if max(abs(base), abs(base + 2 * count - 1)) >= _SEED_BOUND:
            raise _InputError(f"--seed must keep every pair seed within {_NUMERAL_DIGITS} digits")
        pair_seeds = [(base + 2 * k, base + 2 * k + 1) for k in range(count)]
        rows = generators._random_chain_rows(p, (s for pair in pair_seeds for s in pair))
        first, second = np.arange(0, 2 * count, 2), np.arange(1, 2 * count, 2)
        mode = f"samples={count}"

    if len(set(map(len, rows))) == 1:
        reports = oracle.check_index_pairs(p, np.array(rows, dtype=np.intp), first, second)
    else:   # maximal chains of two lengths: p fails the preconditions, no cell is read
        named = [[p.elements[i] for i in row] for row in rows]
        reports = oracle.check_pairs(p, [(named[a], named[b])
                                         for a, b in zip(first.tolist(), second.tolist())])
    failures = list(map(attrgetter("ok"), reports)).count(False)
    # The row ids of each pair, listed only where its report or failure line is written.
    pairs = list(zip(first.tolist(), second.tolist())) if args.full or failures else []

    if args.json:
        _emit_json({
            "name": p.name,
            "mode": mode,
            "seed": args.seed,
            "pair_seeds": pair_seeds,
            "pairs": len(reports),
            "failures": failures,
            "reports": _report_rows(p, rows, pairs, reports) if args.full or failures else None,
        })
    else:
        print(f"poset: {p.name}   mode: {mode}   pairs: {len(reports)}")
        if pair_seeds is not None:
            print(f"seed: {args.seed} (pair seeds derived deterministically)")
        if failures:
            for (a, b), r in zip(pairs, reports):
                if r.ok:
                    continue
                print(f"FAIL  {','.join(p.elements[i] for i in rows[a])}  "
                      f"vs  {','.join(p.elements[i] for i in rows[b])}")
                for e in r.entries:
                    if not e.passed:
                        print(f"      {e.name}: {e.detail}")
        print(f"result: {'all checks passed' if not failures else f'{failures} failing pairs'}")
    return OK if failures == 0 else VIOLATION


def _option_numeral(text: str) -> int:
    """An integer option's value, read by `_numeral`; argparse names the option."""
    try:
        return _numeral(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_gen(args) -> int:
    family = args.family
    if len(args.params) != 1:
        raise _InputError(f"bad parameters for family {family!r}: "
                          f"expected one parameter, got {len(args.params)}")
    param = args.params[0]
    try:
        if family == "boolean":
            p = generators.boolean_lattice(_numeral(param))
        elif family == "chainprod":
            p = generators.chain_product([_numeral(x) for x in param.split(",")])
        elif family == "partition":
            p = generators.partition_lattice(_numeral(param))
        elif family == "graphic":
            with open(param, encoding="utf-8") as fh:
                graph = generators.Graph.from_edge_list_text(fh.read())
            p = generators.graphic_flat_lattice(graph)
        else:  # "counter": argparse's choices admit no other family
            p = generators.named_counterexample(param)
    except (ValueError, SemilatError) as exc:
        raise _InputError(f"bad parameters for family {family!r}: {exc}") from exc
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    data = {**p.to_dict(), "name": args.name or p.name}
    return _save(_save_json, data, args.output, f"{data['name']!r} ({len(p)} elements)")


def _cmd_group(args) -> int:
    if args.group_cmd == "builtin":
        try:
            g = groups.builtin_group(args.name)
        except SemilatError as exc:
            raise _InputError(str(exc)) from exc
        return _save(groups.save_group, g, args.output, f"{g.name!r} (order {g.order})")

    g = _load(groups.load_group, args.group)
    if args.group_cmd == "subgroups":
        subs = groups.all_subgroups(g)
        if args.json:
            _emit_json({"group": g.name, "order": g.order, "count": len(subs),
                        "subgroups": [list(s) for s in subs]})
        else:
            print(f"group: {g.name} (order {g.order})")
            print(f"subgroups: {len(subs)}")
            for s in subs:
                print(f"  order {len(s):>3}  {{{groups.subgroup_name(s)}}}")
        return OK
    if args.group_cmd == "subnormal-lattice":
        lattice = groups.subnormal_lattice(g)
        return _save(save_poset, lattice, args.output,
                     f"{lattice.name!r} ({len(lattice)} elements)")
    # composition: the group subcommands are required, so nothing else is left.
    series = [text.split(",") for text in (args.series_a, args.series_b) if text]
    if len(series) == 1:
        raise _InputError("provide both --series-a and --series-b or neither")
    report = groups.composition_analysis(g, *series)
    if args.json:
        _emit_json(report._payload())
    else:
        print(f"group: {report.group} (order {report.order})")
        print(f"composition length: {report.length}")
        for idx, (series, factors) in enumerate(
                zip(report.series, report.factor_multisets)):
            print(f"series {idx}: {' < '.join('{' + s + '}' for s in series)}"
                  f"   factors {sorted(factors)}")
        print(report._text())
        print(f"factor multiset chain-independent: "
              f"{'yes' if report.multiset_independent else 'no'}")
    return OK if report.ok else VIOLATION


def _cmd_export_dot(args) -> int:
    p = _load(load_poset, args.poset)
    chain_a, chain_b = (text.split(",") if text else None for text in (args.chain_a, args.chain_b))
    matching = None
    if args.witnesses:
        if not (chain_a and chain_b):
            raise _InputError("--witnesses needs both --chain-a and --chain-b")
        matching = jh_match(p, chain_a, chain_b)
    text = export_dot(p, chain_a, chain_b, matching)
    if args.output:
        return _save(_write_text, text, args.output, "DOT")
    sys.stdout.write(text)
    return OK


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="semilat",
        description="Chain matching and projectivity in semimodular join semilattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check join-semilattice and semimodularity laws")
    sp.add_argument("poset")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("chains", help="enumerate or count maximal chains")
    sp.add_argument("poset")
    sp.add_argument("--limit", type=_option_numeral, default=None)
    sp.add_argument("--count", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_chains)

    sp = sub.add_parser("match", help="match prime intervals of two maximal chains")
    sp.add_argument("poset")
    sp.add_argument("--chain-a", required=True, metavar="E0,E1,...")
    sp.add_argument("--chain-b", required=True, metavar="E0,E1,...")
    sp.add_argument("--trace", action="store_true", help="record one frame per induction level")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_match)

    sp = sub.add_parser("project", help="find an up-and-down witness between prime intervals")
    sp.add_argument("poset")
    sp.add_argument("--source", required=True, metavar="A,B")
    sp.add_argument("--target", required=True, metavar="C,D")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("verify", help="run the brute-force theorem checks over chain pairs")
    sp.add_argument("poset")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all-pairs", action="store_true")
    group.add_argument("--samples", type=_option_numeral, default=None, metavar="K")
    sp.add_argument("--seed", type=_option_numeral, default=0)
    sp.add_argument("--full", action="store_true", help="include per-pair reports in --json")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("gen", help="generate a corpus lattice as a poset JSON file")
    sp.add_argument("family", choices=["boolean", "chainprod", "partition", "graphic", "counter"])
    sp.add_argument("params", nargs="*")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--name", default=None, help="override the generated poset name")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("group", help="finite-group analyses over Cayley-table JSON")
    gsub = sp.add_subparsers(dest="group_cmd", required=True)

    gp = gsub.add_parser("subgroups", help="enumerate all subgroups")
    gp.add_argument("group")
    gp.add_argument("--json", action="store_true")

    gp = gsub.add_parser("subnormal-lattice", help="write the subnormal-subgroup lattice")
    gp.add_argument("group")
    gp.add_argument("-o", "--output", required=True)

    gp = gsub.add_parser("composition", help="match composition series and their factors")
    gp.add_argument("group")
    gp.add_argument("--series-a", default=None, metavar="N0,N1,...")
    gp.add_argument("--series-b", default=None, metavar="N0,N1,...")
    gp.add_argument("--json", action="store_true")

    gp = gsub.add_parser("builtin", help="write a builtin group's Cayley table")
    gp.add_argument("name")
    gp.add_argument("-o", "--output", required=True)

    sp.set_defaults(func=_cmd_group)

    sp = sub.add_parser("export-dot", help="render the Hasse diagram as DOT text")
    sp.add_argument("poset")
    sp.add_argument("--chain-a", default=None, metavar="E0,E1,...")
    sp.add_argument("--chain-b", default=None, metavar="E0,E1,...")
    sp.add_argument("--witnesses", action="store_true",
                    help="run the matcher on the two chains and annotate witness elements")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_export_dot)

    return parser


def run(argv) -> int:
    """Dispatch one invocation; never raises, returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.func(args)
    except (_InputError, SizeLimitError, UnknownElementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SemilatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION


def main() -> None:
    if hasattr(signal, "SIGPIPE"):   # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
