"""Command-line interface: decide fitting existence, verify a candidate
ontology, query entailment oracles, and generate fitting instances from
entailment problems."""

import argparse
import sys

from .core import (
    ALCQ, CONSISTENCY, AQ, FULLCQ, InputError, collection,
)
from .flatfit import (
    FITTING_EXISTS, NO_FITTING, decide_alcq_fitting,
    decide_aq_fitting, decide_consistency_fitting, decide_fullcq_fitting,
)
from .harness import (
    LOGIC_NAMES, atom_text, parse_abox, parse_collection,
    parse_ontology, parse_query, generate_from_entailment,
    serialize_collection, serialize_ontology, verify_fit,
)
from .semantics import entails_ucq_bounded
from .ucqfit import Bounds, decide_ucq_fitting

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_INTERNAL = 4


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err.strerror}")


def _certificate_lines(mode, certificate):
    lines = []
    if certificate is None:
        return lines
    if mode == CONSISTENCY:
        ex, mapping = certificate
        pairs = ", ".join(f"{a}->{b}" for a, b in mapping.assignment)
        lines.append(f"certificate: negative example maps into the positive "
                     f"union via {pairs}")
    else:
        completion, ex = certificate
        added = ", ".join(sorted(atom_text(a) for a in completion.added))
        lines.append(f"certificate: saturation adds {{{added}}} and covers a "
                     f"negative query")
    return lines


def _cmd_fit(args):
    e = parse_collection(_read(args.examples))
    mode = e.mode
    logic = e.logic
    if args.mode is not None:
        mode = CONSISTENCY if args.mode == "alcq" else args.mode
        if args.mode == "alcq":
            logic = ALCQ
    if args.logic is not None:
        logic = LOGIC_NAMES[args.logic]
    e = collection(e.positives, e.negatives, mode, logic)

    if mode == CONSISTENCY:
        decide = decide_alcq_fitting if logic == ALCQ \
            else decide_consistency_fitting
        verdict = decide(e)
    elif mode == AQ:
        verdict = decide_aq_fitting(e)
    elif mode == FULLCQ:
        verdict = decide_fullcq_fitting(e)
    else:
        bounds = Bounds(depth_unit=args.depth_unit, degree=args.degree,
                        finite_witness_size=args.finite_size)
        verdict = decide_ucq_fitting(e, bounds)

    print(f"verdict: {verdict.outcome}")
    for line in _certificate_lines(mode, verdict.certificate
                                   if verdict.outcome == NO_FITTING else None):
        print(line)
    if verdict.ontology is not None:
        text = serialize_ontology(verdict.ontology)
        if args.emit_ontology:
            _write(args.emit_ontology, text)
            print(f"ontology written to {args.emit_ontology}")
        else:
            print("ontology:")
            sys.stdout.write(text)
    if verdict.outcome == FITTING_EXISTS:
        return EXIT_YES
    if verdict.outcome == NO_FITTING:
        return EXIT_NO
    return EXIT_UNKNOWN


def _cmd_verify(args):
    o = parse_ontology(_read(args.ontology))
    e = parse_collection(_read(args.examples))
    report = verify_fit(o, e)
    for k, r in enumerate(report.results):
        detail = f" ({r.detail})" if r.detail else ""
        print(f"example {k + 1} ({r.example.polarity}): {r.status}{detail}")
    if report.fits:
        print("verdict: fits")
        return EXIT_YES
    if report.verdict.outcome == NO_FITTING:
        print("verdict: does-not-fit")
        return EXIT_NO
    print("verdict: unknown")
    return EXIT_UNKNOWN


def _cmd_entail(args):
    a = parse_abox(_read(args.abox))
    o = parse_ontology(_read(args.ontology))
    q = parse_query(args.query)
    logic = LOGIC_NAMES[args.logic] if args.logic else o.logic
    answer = entails_ucq_bounded(a, o, q, logic)
    print(answer.status)
    if answer.status == "entailed":
        return EXIT_YES
    if answer.status == "not-entailed":
        return EXIT_NO
    return EXIT_UNKNOWN


def _cmd_generate(args):
    a = parse_abox(_read(args.abox))
    o = parse_ontology(_read(args.ontology))
    q = parse_query(args.query)
    e = generate_from_entailment(a, o, q)
    text = serialize_collection(e)
    if args.output:
        _write(args.output, text)
        print(f"collection written to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_YES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dlfit",
        description="Fitting-ontology solvers for ALC, ALCI, and ALCQ.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="decide fitting existence")
    fit.add_argument("examples", metavar="EXAMPLES",
                     help="example collection file")
    fit.add_argument("--mode",
                     choices=["consistency", "aq", "fullcq", "ucq", "alcq"],
                     help="override the file's mode header "
                          "(alcq = consistency examples under ALCQ)")
    fit.add_argument("--logic", choices=sorted(LOGIC_NAMES),
                     help="override the file's logic header")
    fit.add_argument("--depth-unit", type=int, default=1, metavar="N",
                     help="tree-depth unit for the ucq decision procedure")
    fit.add_argument("--degree", type=int, default=2, metavar="N",
                     help="branching bound for the ucq decision procedure")
    fit.add_argument("--finite-size", type=int, default=3, metavar="N",
                     help="per-part element bound for finite witness search")
    fit.add_argument("--emit-ontology", metavar="PATH",
                     help="write the synthesized ontology to PATH")
    fit.set_defaults(run=_cmd_fit)

    verify = sub.add_parser("verify",
                            help="verify an ontology against examples")
    verify.add_argument("--ontology", required=True, metavar="PATH")
    verify.add_argument("examples", metavar="EXAMPLES")
    verify.set_defaults(run=_cmd_verify)

    entail = sub.add_parser("entail", help="query the entailment oracle")
    entail.add_argument("--abox", required=True, metavar="PATH")
    entail.add_argument("--ontology", required=True, metavar="PATH")
    entail.add_argument("--query", required=True, metavar="QUERY")
    entail.add_argument("--logic", choices=sorted(LOGIC_NAMES))
    entail.set_defaults(run=_cmd_entail)

    generate = sub.add_parser(
        "generate", help="turn an entailment problem into fitting examples")
    generate.add_argument("--abox", required=True, metavar="PATH")
    generate.add_argument("--ontology", required=True, metavar="PATH")
    generate.add_argument("--query", required=True, metavar="QUERY")
    generate.add_argument("-o", "--output", metavar="PATH")
    generate.set_defaults(run=_cmd_generate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        # a bug, never a verdict: keep it off the verdict exit codes
        import traceback  # only here, so that start-up does not pay for it
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
