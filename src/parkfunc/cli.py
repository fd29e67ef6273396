"""Command-line front end.

Every operation of the library is reachable through a subcommand; `--json`
switches any of them from human-readable text to a single structured record
on stdout.  Exit codes: 0 success (or a true answer), 1 a false answer or a
failed verification/simulation, 2 invalid input, 3 guard-range violation,
130 interrupted (Ctrl-C).
"""

import argparse
import functools
import itertools
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
from .cycle_lemma import decompose, iter_primes, recompose, sample_primes
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
    """Print the JSON record, named by its subcommand, or else the text view.

    `text` builds the view when called; a handler that prints its own passes None.
    """
    print(json.dumps({"command": args.command, **record}) if args.json else text())


def _cmd_check(args):
    word = parse_word(args.word)
    result = is_prime_parking_function(word) if args.prime else is_parking_function(word)
    _emit(args, lambda: str(result).lower(), {
        "word": word,
        "prime": args.prime,
        "result": result,
    })
    return 0 if result else 1


def _cmd_decompose(args):
    word = parse_word(args.word)
    k, b = decompose(word)
    _emit(args, lambda: f"k={k} b={format_word(b)}", {
        "word": word,
        "k": k,
        "b": b,
    })
    return 0


def _cmd_recompose(args):
    b = parse_word(args.word)
    word = recompose(b, args.k)
    _emit(args, lambda: format_word(word), {
        "b": b,
        "k": args.k,
        "word": word,
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

    def text():
        if outcome.success:
            return render_street(outcome.assignment, street)
        return f"car {outcome.failed_car} leaves the street"

    _emit(args, text, {
        "word": word,
        "street": args.street,
        "k": args.k,
        "labels": street,
        "success": outcome.success,
        "assignment": outcome.assignment,
        "failed_car": outcome.failed_car,
    })
    return 0 if outcome.success else 1


def _cmd_strip(args):
    word = parse_word(args.word)
    result = strip_first_one(word)
    _emit(args, lambda: format_word(result), {
        "word": word,
        "result": result,
    })
    return 0


def _cmd_count(args):
    counter = count_prime_parking_functions if args.prime else count_parking_functions
    report = counter(args.n)

    def text():
        return (
            f"matching={report.matching} formula={report.formula_value} "
            f"agrees={str(report.agrees).lower()}"
        )

    _emit(args, text, {"prime": args.prime, **report._asdict()})
    return 0 if report.agrees else 1


def _cmd_verify(args):
    checker = {
        "bijection": verify_bijection,
        "proposition": verify_proposition,
        "pak-stanley": verify_pak_stanley,
    }[args.what]
    result = checker(args.n)
    _emit(args, lambda: str(result).lower(), {
        "what": args.what,
        "n": args.n,
        "result": result,
    })
    return 0 if result else 1


def _cmd_sample(args):
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    # Text mode holds one word at a time; --json holds every word until it prints.
    held = args.n * args.count if args.json else args.n
    if held > 10**6:
        raise GuardRangeError(f"sample is guarded to 1000000 word entries at once (got {held})")
    seed = args.seed
    if seed is None:
        if args.json:
            raise ValueError("--seed is required with --json for reproducibility")
        seed = time.time_ns()
    if not args.json:
        words = iter_primes(args.n, seed)  # checks n, so a bad n echoes no seed
        if args.seed is None:
            print(f"seed: {seed}", file=sys.stderr)
        # Print each word as it is drawn, so a reader that stops early (as
        # `| head`) stops the draws too, and memory does not grow with --count.
        for word in itertools.islice(words, args.count):
            print(format_word(word))
        return 0
    words = sample_primes(args.n, seed, args.count)
    _emit(args, None, {
        "n": args.n,
        "seed": seed,
        "count": args.count,
        "words": words,
    })
    return 0


def _cmd_shi(args):
    rows = [{"signs": r.sign_vector.as_string(), "label": r.label, "bounded": r.bounded,
             "depth": r.bfs_depth} for r in enumerate_regions(args.n)]
    _emit(args, lambda: "\n".join(
        f"{row['signs']} {format_word(row['label'])} "
        f"{str(row['bounded']).lower()} {row['depth']}"
        for row in rows
    ), {"n": args.n, "regions": rows})
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--n", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="parkfunc",
        description="Parking functions: check, decompose, simulate, count, regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subcommand parser, for `run`

    def add(name, handler, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = add("check", _cmd_check, "membership predicates")
    p.add_argument("--word", required=True, help="comma/space separated entries")
    p.add_argument("--prime", action="store_true", help="test primality instead")

    p = add("decompose", _cmd_decompose,
            "split a word over [n-1] into shift k and prime word b")
    p.add_argument("--word", required=True)

    p = add("recompose", _cmd_recompose, "rebuild the word from b and k")
    p.add_argument("--word", required=True, help="the prime word b")
    p.add_argument("--k", type=int, required=True)

    p = add("simulate", _cmd_simulate, "run the parking process")
    p.add_argument("--word", required=True)
    p.add_argument("--street", choices=["standard", "prime", "rotated"],
                   default="standard")
    p.add_argument("--k", type=int, help="rotation, only with --street rotated")

    p = add("strip", _cmd_strip, "drop the first 1 of a word")
    p.add_argument("--word", required=True)

    p = add("count", _cmd_count, "exhaustive count against the closed form", sized)
    p.add_argument("--prime", action="store_true")

    p = add("verify", _cmd_verify, "exhaustive verifications", sized)
    p.add_argument("--what", required=True,
                   choices=["bijection", "proposition", "pak-stanley"])

    p = add("sample", _cmd_sample, "uniform prime parking functions", sized)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, default=1)

    add("shi", _cmd_shi, "list the labeled regions of the arrangement", sized)
    return parser


@functools.cache
def _parser():
    # Built on the first call, not at import.  One parser serves every call:
    # parse_args makes a fresh Namespace each time, so no value carries over.
    return build_parser()


def _parse(argv):
    """``_parser().parse_args(argv)``, without its top-level pass when it can.

    When argv[0] names a subcommand, the top-level parser only sets
    ``command`` and hands argv[1:] to that subcommand's parser through
    ``parse_known_args``; this makes the same call directly.  Any other argv
    (empty, a leading flag, an unknown name) and any arguments left over take
    the full parse, which reports them as it always has.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv=None):
    """Run one request; return its exit code.

    A request that names a subcommand is parsed by that subcommand's parser
    alone, with the same namespace, usage errors and exit codes as a parse
    by the full parser of ``build_parser``.
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:  # bad input; a GuardRangeError is one too
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardRangeError) else 2


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
    except KeyboardInterrupt:  # Ctrl-C: exit as a shell reports SIGINT, quietly
        raise SystemExit(130)
    raise SystemExit(code)
