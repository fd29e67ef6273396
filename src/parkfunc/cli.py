"""Command-line front end.

Every operation of the library is reachable through a subcommand; `--json`
switches any of them from human-readable text to a single structured record
on stdout.  Exit codes: 0 success (or a true answer), 1 a false answer or a
failed verification/simulation, 2 invalid input, 3 guard-range violation.
"""

import argparse
import json
import os
import sys
import time

from .core import (
    format_word,
    is_parking_function,
    is_prime_parking_function,
    parse_word,
    prime_street,
    rotated_street,
    simulate,
    standard_street,
    strip_first_one,
)
from .cycle_lemma import decompose, recompose, sample_primes
from .enumeration import count_parking_functions, count_prime_parking_functions
from .enumeration import verify_bijection, verify_proposition
from .errors import GuardRangeError
from .shi import enumerate_regions, verify_pak_stanley


def render_street(cars, labels):
    """Two aligned rows, cars over spot labels, mirroring a street diagram."""
    width = max(len(str(v)) for v in (*cars, *labels))
    car_row = " ".join(f"{c:>{width}}" for c in cars)
    spot_row = " ".join(f"{s:>{width}}" for s in labels)
    return f"cars  | {car_row}\nspots | {spot_row}"


def _emit(args, text, record):
    print(json.dumps(record) if args.json else text)


def _cmd_check(args):
    word = parse_word(args.word)
    result = is_prime_parking_function(word) if args.prime else is_parking_function(word)
    _emit(args, str(result).lower(), {
        "command": "check",
        "word": list(word),
        "prime": args.prime,
        "result": result,
    })
    return 0 if result else 1


def _cmd_decompose(args):
    word = parse_word(args.word)
    k, b = decompose(word)
    _emit(args, f"k={k} b={format_word(b)}", {
        "command": "decompose",
        "word": list(word),
        "k": k,
        "b": list(b),
    })
    return 0


def _cmd_recompose(args):
    b = parse_word(args.word)
    word = recompose(b, args.k)
    _emit(args, format_word(word), {
        "command": "recompose",
        "b": list(b),
        "k": args.k,
        "word": list(word),
    })
    return 0


def _cmd_simulate(args):
    word = parse_word(args.word)
    n = len(word)
    if args.street == "rotated":
        if args.k is None:
            raise ValueError("the rotated street requires --k")
        street = rotated_street(n, args.k)
    else:
        if args.k is not None:
            raise ValueError("--k only applies to --street rotated")
        street = standard_street(n) if args.street == "standard" else prime_street(n)
    outcome = simulate(word, street)
    if outcome.success:
        text = render_street(outcome.assignment, street)
    else:
        text = f"car {outcome.failed_car} leaves the street"
    _emit(args, text, {
        "command": "simulate",
        "word": list(word),
        "street": args.street,
        "k": args.k,
        "labels": list(street),
        "success": outcome.success,
        "assignment": list(outcome.assignment) if outcome.success else None,
        "failed_car": outcome.failed_car,
    })
    return 0 if outcome.success else 1


def _cmd_strip(args):
    word = parse_word(args.word)
    result = strip_first_one(word)
    _emit(args, format_word(result), {
        "command": "strip",
        "word": list(word),
        "result": list(result),
    })
    return 0


def _cmd_count(args):
    counter = count_prime_parking_functions if args.prime else count_parking_functions
    report = counter(args.n)
    text = (
        f"matching={report.matching} formula={report.formula_value} "
        f"agrees={str(report.agrees).lower()}"
    )
    _emit(args, text, {"command": "count", "prime": args.prime, **report.as_dict()})
    return 0 if report.agrees else 1


def _cmd_verify(args):
    checker = {
        "bijection": verify_bijection,
        "proposition": verify_proposition,
        "pak-stanley": verify_pak_stanley,
    }[args.what]
    result = checker(args.n)
    _emit(args, str(result).lower(), {
        "command": "verify",
        "what": args.what,
        "n": args.n,
        "result": result,
    })
    return 0 if result else 1


def _cmd_sample(args):
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    seed = args.seed
    if seed is None:
        if args.json:
            raise ValueError("--seed is required with --json for reproducibility")
        seed = time.time_ns()
    words = sample_primes(args.n, seed, args.count)
    _emit(args, "\n".join(format_word(w) for w in words), {
        "command": "sample",
        "n": args.n,
        "seed": seed,
        "count": args.count,
        "words": [list(w) for w in words],
    })
    return 0


def _cmd_shi(args):
    regions = enumerate_regions(args.n)
    lines = [
        f"{r.sign_vector.as_string()} {format_word(r.label)} "
        f"{str(r.bounded).lower()} {r.bfs_depth}"
        for r in regions
    ]
    _emit(args, "\n".join(lines), {
        "command": "shi",
        "n": args.n,
        "regions": [
            {
                "signs": r.sign_vector.as_string(),
                "label": list(r.label),
                "bounded": r.bounded,
                "depth": r.bfs_depth,
            }
            for r in regions
        ],
    })
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")

    parser = argparse.ArgumentParser(
        prog="parkfunc",
        description="Parking functions: check, decompose, simulate, count, regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="membership predicates")
    p.add_argument("--word", required=True, help="comma/space separated entries")
    p.add_argument("--prime", action="store_true", help="test primality instead")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a word over [n-1] into shift k and prime word b")
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("recompose", parents=[common],
                       help="rebuild the word from b and k")
    p.add_argument("--word", required=True, help="the prime word b")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_recompose)

    p = sub.add_parser("simulate", parents=[common], help="run the parking process")
    p.add_argument("--word", required=True)
    p.add_argument("--street", choices=["standard", "prime", "rotated"],
                   default="standard")
    p.add_argument("--k", type=int, help="rotation, only with --street rotated")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("strip", parents=[common], help="drop the first 1 of a word")
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_strip)

    p = sub.add_parser("count", parents=[common],
                       help="exhaustive count against the closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", action="store_true")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", parents=[common], help="exhaustive verifications")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", required=True,
                   choices=["bijection", "proposition", "pak-stanley"])
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", parents=[common],
                       help="uniform prime parking functions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("shi", parents=[common],
                       help="list the labeled regions of the arrangement")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_shi)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except GuardRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head).  Point it at devnull
        # so the flush at interpreter exit cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(code)
