"""Command-line interface.

Exit codes: 0 success, 1 mathematical property violation or verification
failure, 2 usage or input error (bad flags, unreadable/malformed files,
unknown element names, sizes beyond a guard).  With --json, stdout is a
stable machine-readable object; the human format makes no stability promise.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generators, groups, oracle, semilattice as sl
from .dot import export_dot
from .errors import SemilatError, SizeLimitError, UnknownElementError
from .matching import jh_match
from .poset import Poset, from_dict, load_poset, save_poset
from .projectivity import updown_projective

OK, VIOLATION, USAGE = 0, 1, 2


class _InputError(Exception):
    """Anything wrong with the invocation or its input files (exit 2)."""


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load(loader, path: str):
    """Read an input file with `loader`, mapping every failure to exit 2."""
    try:
        return loader(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except SemilatError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _parse_elements(p: Poset, text: str, flag: str) -> list[str]:
    """Split a comma-separated element list and resolve names up front, so a
    typo is an input error rather than a property violation."""
    names = text.split(",")
    for name in names:
        try:
            p.index(name)
        except UnknownElementError as exc:
            raise _InputError(f"{flag}: {exc}") from exc
    return names


def _cycle_form(pi) -> str:
    n = len(pi)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = pi[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = pi[nxt - 1]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(str(c) for c in cycle) + ")")
    return "".join(cycles) if cycles else "()"


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
    chain_a = _parse_elements(p, args.chain_a, "--chain-a")
    chain_b = _parse_elements(p, args.chain_b, "--chain-b")
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
    source = _parse_elements(p, args.source, "--source")
    target = _parse_elements(p, args.target, "--target")
    if len(source) != 2 or len(target) != 2:
        raise _InputError("--source and --target each need exactly two elements")
    witness = updown_projective(p, tuple(source), tuple(target))
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


def _sample_chain_pairs(p: Poset, samples: int, seed: int):
    """Seeded chain-pair sampling via cover walks; pair seeds are reported."""
    pair_seeds = [(seed * 1000003 + 2 * k, seed * 1000003 + 2 * k + 1)
                  for k in range(samples)]
    pairs = [(generators.random_maximal_chain(p, sa),
              generators.random_maximal_chain(p, sb)) for sa, sb in pair_seeds]
    return pairs, pair_seeds


def _cmd_verify(args) -> int:
    p = _load(load_poset, args.poset)
    pair_seeds = None
    # Default policy: exhaustive when the ordered-pair count is modest,
    # otherwise 200 seeded samples.  Explicit flags override.
    total = sl.count_maximal_chains(p) ** 2
    if args.all_pairs or (args.samples is None and total <= 5000):
        chains = sl.maximal_chains(p)
        pairs = [(a, b) for a in chains for b in chains]
        mode = "all-pairs"
    else:
        count = args.samples if args.samples is not None else 200
        pairs, pair_seeds = _sample_chain_pairs(p, count, args.seed)
        mode = f"samples={count}"

    reports = [(list(a), list(b), r) for (a, b), r in zip(pairs, oracle.check_pairs(p, pairs))]
    failures = sum(not r.ok for _, _, r in reports)

    if args.json:
        _emit_json({
            "name": p.name,
            "mode": mode,
            "seed": args.seed,
            "pair_seeds": pair_seeds,
            "pairs": len(reports),
            "failures": failures,
            "reports": [
                {"chain_a": a, "chain_b": b, **r.to_dict()} for a, b, r in reports
            ] if args.full or failures else None,
        })
    else:
        print(f"poset: {p.name}   mode: {mode}   pairs: {len(reports)}")
        if pair_seeds is not None:
            print(f"seed: {args.seed} (pair seeds derived deterministically)")
        if failures:
            for a, b, r in reports:
                if r.ok:
                    continue
                print(f"FAIL  {','.join(a)}  vs  {','.join(b)}")
                for e in r.entries:
                    if not e.passed:
                        print(f"      {e.name}: {e.detail}")
        print(f"result: {'all checks passed' if not failures else f'{failures} failing pairs'}")
    return OK if failures == 0 else VIOLATION


def _cmd_gen(args) -> int:
    family = args.family
    try:
        if family == "boolean":
            p = generators.boolean_lattice(int(args.params[0]))
        elif family == "chainprod":
            lengths = [int(x) for x in args.params[0].split(",")]
            p = generators.chain_product(lengths)
        elif family == "partition":
            p = generators.partition_lattice(int(args.params[0]))
        elif family == "graphic":
            with open(args.params[0], encoding="utf-8") as fh:
                graph = generators.Graph.from_edge_list_text(fh.read())
            p = generators.graphic_flat_lattice(graph)
        elif family == "counter":
            p = generators.named_counterexample(args.params[0])
        else:
            raise _InputError(f"unknown family {family!r}; "
                              "choose from boolean, chainprod, partition, graphic, counter")
    except (IndexError, ValueError, SemilatError) as exc:
        raise _InputError(f"bad parameters for family {family!r}: {exc}") from exc
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    if args.name:
        data = p.to_dict()
        data["name"] = args.name
        p = from_dict(data)
    save_poset(p, args.output)
    print(f"wrote {p.name!r} ({len(p)} elements) to {args.output}")
    return OK


def _cmd_group(args) -> int:
    if args.group_cmd == "builtin":
        try:
            g = groups.builtin_group(args.name)
        except SemilatError as exc:
            raise _InputError(str(exc)) from exc
        groups.save_group(g, args.output)
        print(f"wrote {g.name!r} (order {g.order}) to {args.output}")
        return OK

    g = _load(groups.load_group, args.group)
    if args.group_cmd == "subgroups":
        subs = groups.all_subgroups(g)
        if args.json:
            _emit_json({"group": g.name, "order": g.order, "count": len(subs),
                        "subgroups": [list(s.members) for s in subs]})
        else:
            print(f"group: {g.name} (order {g.order})")
            print(f"subgroups: {len(subs)}")
            for s in subs:
                print(f"  order {len(s.members):>3}  {{{s.name}}}")
        return OK
    if args.group_cmd == "subnormal-lattice":
        lattice = groups.subnormal_lattice(g)
        save_poset(lattice, args.output)
        print(f"wrote {lattice.name!r} ({len(lattice)} elements) to {args.output}")
        return OK
    if args.group_cmd == "composition":
        series_a = series_b = None
        if args.series_a or args.series_b:
            if not (args.series_a and args.series_b):
                raise _InputError("provide both --series-a and --series-b or neither")
            lattice = groups.subnormal_lattice(g)
            series_a = _parse_elements(lattice, args.series_a, "--series-a")
            series_b = _parse_elements(lattice, args.series_b, "--series-b")
        report = groups.composition_analysis(g, series_a, series_b)
        if args.json:
            _emit_json(report.to_dict())
        else:
            print(f"group: {report.group} (order {report.order})")
            print(f"composition length: {report.length}")
            for idx, (series, factors) in enumerate(
                    zip(report.series, report.factor_multisets)):
                print(f"series {idx}: {' < '.join('{' + s + '}' for s in series)}"
                      f"   factors {sorted(factors)}")
            for pair in report.pairs:
                status = "ok" if pair.factors_equal else "MISMATCH"
                print(f"pair ({pair.index_a}, {pair.index_b}): pi = {list(pair.pi)}  "
                      f"factor pairs {[list(fp) for fp in pair.factor_pairs]}  {status}")
            print(f"factor multiset chain-independent: "
                  f"{'yes' if report.multiset_independent else 'no'}")
        return OK if report.ok else VIOLATION
    raise _InputError(f"unknown group subcommand {args.group_cmd!r}")


def _cmd_export_dot(args) -> int:
    p = _load(load_poset, args.poset)
    chain_a = _parse_elements(p, args.chain_a, "--chain-a") if args.chain_a else None
    chain_b = _parse_elements(p, args.chain_b, "--chain-b") if args.chain_b else None
    matching = None
    if args.witnesses:
        if not (chain_a and chain_b):
            raise _InputError("--witnesses needs both --chain-a and --chain-b")
        matching = jh_match(p, chain_a, chain_b)
    text = export_dot(p, chain_a, chain_b, matching)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote DOT to {args.output}")
    else:
        sys.stdout.write(text)
    return OK


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--limit", type=int, default=None)
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
    group.add_argument("--samples", type=int, default=None, metavar="K")
    sp.add_argument("--seed", type=int, default=0)
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
    except (_InputError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SemilatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
