"""Command line front end.

Commands: classify, canon, class, graph, generate, search, verify.  The
--json flag switches every command, including error paths, to JSON on
stdout.  Exit status: 0 on success, 1 when a verification report fails,
2 on usage errors, 3 when a search spends its node budget undecided.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import engine, matcher, patterns, sequences, verify


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's default from clobbering a top-level --json
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON output")

    parser = argparse.ArgumentParser(
        prog="revpat",
        description="avoidability toolkit for binary patterns with reversal",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="avoidability index of a pattern (2, 3 or infinity)")
    p.add_argument("pattern")

    p = sub.add_parser("canon", parents=[common], help="canonical form of a pattern")
    p.add_argument("pattern")

    p = sub.add_parser("class", parents=[common],
                       help="equivalence class of a pattern, sorted")
    p.add_argument("pattern")

    p = sub.add_parser("graph", parents=[common], help="pattern graph edges")
    p.add_argument("pattern")
    p.add_argument("--check-bipartite", action="store_true",
                   help="also report a 2-coloring or an odd closed walk")

    p = sub.add_parser("generate", parents=[common], help="prefix of a named sequence")
    p.add_argument("sequence", metavar="seqid",
                   help="one of: " + ", ".join(sequences.SEQUENCE_IDS))
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("search", parents=[common],
                       help="backtracking search for an avoiding word")
    p.add_argument("pattern")
    p.add_argument("--alphabet", type=int, required=True, metavar="K")
    p.add_argument("--target-length", type=int, required=True, metavar="N")
    p.add_argument("--max-nodes", type=int, default=None, metavar="N",
                   help="node budget; a search that spends it is inconclusive (exit 3)")

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--only", default=None, metavar="ID",
                   help="one of: " + ", ".join(verify.CHECKS))
    p.add_argument("--params", nargs="*", default=[], metavar="K=V",
                   help="override check parameters, e.g. n=400")

    return parser


def _parse_params(pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"parameter {pair!r} is not of the form key=value")
    return dict(pair.split("=", 1) for pair in pairs)


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def run(argv: list[str]) -> int:
    as_json = "--json" in argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None) and as_json:
            print(json.dumps({"error": "usage error"}))
        return 0 if exc.code in (0, None) else 2
    as_json = getattr(args, "json", False)

    try:
        return _dispatch(args, as_json)
    except (ValueError, RuntimeError) as exc:
        if as_json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, as_json: bool) -> int:
    if args.command == "classify":
        index = engine.classify(args.pattern)
        _emit({"pattern": args.pattern, "avoidability_index": index.value}, as_json,
              str(index.value))
        return 0

    if args.command == "canon":
        c = patterns.canonical(args.pattern)
        _emit({"pattern": args.pattern, "canonical": c}, as_json, c)
        return 0

    if args.command == "class":
        members = patterns.sorted_patterns(patterns.equivalence_class(args.pattern))
        _emit({"pattern": args.pattern, "members": members}, as_json, "\n".join(members))
        return 0

    if args.command == "graph":
        g = engine.pattern_graph(args.pattern)
        payload: dict = {"pattern": args.pattern, "vertices": list(g.vertices),
                         "edges": [list(e) for e in g.edges]}
        lines = [" -- ".join(e) for e in g.edges] or ["(no edges)"]
        if args.check_bipartite:
            result = engine.bipartite_check(g)
            payload["bipartite"] = result.is_bipartite
            payload["coloring"] = result.coloring
            payload["odd_cycle"] = result.odd_cycle
            if result.is_bipartite:
                coloring = " ".join(f"{v}={c}" for v, c in sorted(
                    result.coloring.items(), key=lambda kv: patterns.pattern_key(kv[0])))
                lines.append(f"bipartite: yes ({coloring})")
            else:
                lines.append("bipartite: no (odd walk: " + " - ".join(result.odd_cycle) + ")")
        _emit(payload, as_json, "\n".join(lines))
        return 0

    if args.command == "generate":
        word = sequences.sequence_prefix(args.sequence, args.length)
        _emit({"sequence": args.sequence, "length": args.length,
               "lookahead": sequences.DEFAULT_LOOKAHEAD, "word": word}, as_json, word)
        return 0

    if args.command == "search":
        p = args.pattern
        report = engine.prove_k_unavoidable(p, args.alphabet, args.target_length,
                                            args.max_nodes)
        payload = report.as_dict()
        if report.inconclusive:
            payload["outcome"] = "inconclusive"
            _emit(payload, as_json,
                  f"inconclusive: node budget of {args.max_nodes} spent; longest word over "
                  f"{args.alphabet} letters avoiding {p} so far has length "
                  f"{report.longest_word_length}")
            return 3
        if report.terminated:
            payload["outcome"] = "exhausted"
            human = (f"exhausted at depth {report.longest_word_length}: longest word over "
                     f"{args.alphabet} letters avoiding {p} is {report.longest_word or '(empty)'}")
        else:
            if not matcher.avoids(report.longest_word, p):
                raise RuntimeError(f"search returned {report.longest_word}, which contains {p}")
            payload["outcome"] = "witness"
            human = f"found avoiding word of length {report.longest_word_length}: {report.longest_word}"
        _emit(payload, as_json, human)
        return 0

    if args.command == "verify":
        params = _parse_params(args.params)
        reports = verify.run_checks(only=args.only, params=params)
        if as_json:
            print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
        else:
            for r in reports:
                status = "PASS" if r.passed else "FAIL"
                print(f"{status} {r.check_id} ({r.elapsed:.2f}s)")
                if not r.passed:
                    print(f"     counterexample: {r.counterexample}")
        return 0 if all(r.passed for r in reports) else 1

    raise ValueError(f"unknown command {args.command!r}")


def main() -> None:
    # a reader that stops early (``revpat generate ... | head``) ends the
    # process quietly, as for any other filter, instead of a BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
