"""The three benchmark workloads: inputs, the timed call, and the check.

Each workload builds its inputs from a seed, calls the library through the
module attributes that its own callers use (so the tracer in ``tracer.py``
sees every call), and checks each output against ``reference.py``, which
never imports parkfunc.  A check returns None when the output is right and
otherwise a one-line reason.
"""

import contextlib
import io
import json
import os
import random
import sys

import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "parkfunc", "__init__.py")):
    raise ImportError(f"parkfunc sources not found under {SRC}")
sys.path.insert(0, SRC)

import parkfunc  # noqa: E402
import parkfunc.cli  # noqa: E402
import parkfunc.enumeration  # noqa: E402
import parkfunc.shi  # noqa: E402

if os.path.dirname(os.path.abspath(parkfunc.__file__)) != os.path.join(SRC, "parkfunc"):
    raise ImportError(f"parkfunc was imported from {parkfunc.__file__}, not {SRC}")


class ShiWalk:
    """One op is one Shi region walk; an item is one region."""

    name = "shi-walk"

    def __init__(self, seed, n=4):
        # The input is the whole arrangement for n, so the seed picks nothing.
        self.seed = seed
        self.ops = [n]
        self.labels = ref.parking_words(n)
        self.bounded = ref.prime_words(n)

    def warm(self):
        parkfunc.shi.enumerate_regions(2)

    def call(self, n):
        return parkfunc.shi.enumerate_regions(n)

    def items(self, n):
        return ref.parking_count(n)

    def describe(self, n):
        return f"enumerate_regions({n})"

    def check(self, n, regions):
        labels = [r.label for r in regions]
        bounded = [r.label for r in regions if r.bounded]
        if len(regions) != ref.parking_count(n):
            return f"{len(regions)} regions, expected {ref.parking_count(n)}"
        if len(bounded) != ref.prime_count(n):
            return f"{len(bounded)} bounded regions, expected {ref.prime_count(n)}"
        if len(set(labels)) != len(labels) or set(labels) != self.labels:
            wrong = sorted(set(labels) - self.labels) or ["a repeated label"]
            return f"labels are not the parking functions, e.g. {wrong[0]}"
        if set(bounded) != self.bounded:
            wrong = sorted(set(bounded) ^ self.bounded)
            return f"bounded labels are not the prime words, e.g. {wrong[0]}"
        return None


class OracleScan:
    """One op is one sweep of the four brute-force oracles.

    An item is one word of the space an oracle covers, counted whether or not
    the oracle visits it, so an oracle that scans fewer words for the same
    verdict shows as higher throughput.
    """

    name = "oracle-scan"

    def __init__(self, seed, count_n=7, verify_n=6):
        # The inputs are whole word spaces, so the seed picks nothing.
        self.seed = seed
        self.ops = [(count_n, verify_n)]

    def warm(self):
        self.call((3, 3))

    def call(self, op):
        count_n, verify_n = op
        enum = parkfunc.enumeration
        return (
            enum.count_parking_functions(count_n),
            enum.count_prime_parking_functions(count_n),
            enum.verify_bijection(verify_n),
            enum.verify_proposition(verify_n, force=True),
        )

    def items(self, op):
        count_n, verify_n = op
        return count_n**count_n + (count_n - 1) ** count_n + 2 * (verify_n - 1) ** verify_n

    def describe(self, op):
        return "count n={}, verify n={}".format(*op)

    def check(self, op, out):
        count_n, verify_n = op
        parking, prime, bijection, proposition = out
        expected = (
            ("count_parking_functions", parking,
             count_n**count_n, ref.parking_count(count_n)),
            ("count_prime_parking_functions", prime,
             (count_n - 1) ** count_n, ref.prime_count(count_n)),
        )
        for oracle, report, total, matching in expected:
            got = (report.total_words, report.matching, report.formula_value, report.agrees)
            if got != (total, matching, matching, True):
                return f"{oracle}({count_n}) reported {got}, expected {(total, matching, matching, True)}"
        if bijection is not True:
            return f"verify_bijection({verify_n}) returned {bijection!r}"
        if proposition is not True:
            return f"verify_proposition({verify_n}) returned {proposition!r}"
        return None


def _parking_function(rng, n):
    """A uniform parking function of length n (Pollak's circular argument).

    Cars park on a circle of n+1 spots; the one spot left empty becomes the
    end of a straight street, which every car then parks on.
    """
    m = n + 1
    prefs = rng.choices(range(m), k=n)
    nxt = list(range(m))  # nxt[s] leads, by path halving, to a free spot at or after s

    def free(s):
        while nxt[s] != s:
            nxt[s] = nxt[nxt[s]]
            s = nxt[s]
        return s

    for p in prefs:
        s = free(p)
        nxt[s] = (s + 1) % m
    empty = free(0)
    return [(p - empty - 1) % m + 1 for p in prefs]


def _prime_word(rng, n):
    """A prime word: a parking function of length n-1 with a 1 inserted."""
    word = _parking_function(rng, n - 1)
    word.insert(rng.randrange(n), 1)
    return word


def _any_word(rng, n, top):
    return rng.choices(range(1, top + 1), k=n)


def _text(word):
    return ",".join(map(str, word))


class Request:
    __slots__ = ("kind", "n", "argv", "word", "k")

    def __init__(self, kind, n, argv, word=None, k=None):
        self.kind, self.n, self.argv, self.word, self.k = kind, n, argv, word, k


def _make_request(rng, kind, n):
    """One CLI request of the given kind on words of length n."""
    coin = rng.random() < 0.5
    if kind == "sample":
        seed = rng.randrange(2**32)
        return Request(kind, n, ["sample", "--n", str(n), "--seed", str(seed),
                                 "--count", "16", "--json"])
    if kind == "check":
        word = _parking_function(rng, n) if coin else _any_word(rng, n, n)
        return Request(kind, n, ["check", "--word", _text(word), "--json"], word)
    if kind == "check-prime":
        word = _prime_word(rng, n) if coin else _parking_function(rng, n)
        return Request(kind, n, ["check", "--word", _text(word), "--prime", "--json"], word)
    if kind == "decompose":
        word = _any_word(rng, n, n - 1)
        return Request(kind, n, ["decompose", "--word", _text(word), "--json"], word)
    if kind == "recompose":
        word, k = _prime_word(rng, n), rng.randrange(n - 1) + 1
        return Request(kind, n, ["recompose", "--word", _text(word), "--k", str(k),
                                 "--json"], word, k)
    if kind == "simulate-standard":
        word = _parking_function(rng, n) if coin else _any_word(rng, n, n)
        return Request(kind, n, ["simulate", "--word", _text(word), "--street",
                                 "standard", "--json"], word)
    if kind == "simulate-prime":
        word = _prime_word(rng, n) if coin else _any_word(rng, n, n - 1)
        return Request(kind, n, ["simulate", "--word", _text(word), "--street",
                                 "prime", "--json"], word)
    if kind == "simulate-rotated":
        # a = b shifted by k parks on rotation k; half the requests ask
        # another rotation, on which it fails.
        k = rng.randrange(n - 1) + 1
        word = [(x + k - 2) % (n - 1) + 1 for x in _prime_word(rng, n)]
        if not coin:
            k = k % (n - 1) + 1
        return Request(kind, n, ["simulate", "--word", _text(word), "--street",
                                 "rotated", "--k", str(k), "--json"], word, k)
    if kind == "strip":
        word = _prime_word(rng, n)
        return Request(kind, n, ["strip", "--word", _text(word), "--json"], word)
    raise ValueError(f"unknown request kind {kind!r}")


def _check_request(req, code, record):
    """None if the CLI's exit code and JSON record are right, else why not."""
    kind, word = req.kind, req.word
    if kind == "sample":
        words = record["words"]
        if code != 0 or len(words) != 16:
            return f"exit {code} with {len(words)} words"
        for w in words:
            if len(w) != req.n or not ref.is_prime(w):
                return f"sampled word {_text(w)} is not prime"
        return None
    if record.get("word" if kind != "recompose" else "b") != word:
        return "the record does not echo the input word"
    if kind in ("check", "check-prime"):
        expected = ref.is_prime(word) if kind == "check-prime" else ref.is_parking(word)
        if (code, record["result"]) != (0 if expected else 1, expected):
            return f"exit {code}, result {record['result']}, expected {expected}"
        return None
    if kind == "decompose":
        if code != 0 or not ref.is_shift_pair(word, record["k"], record["b"]):
            return f"k={record['k']} b={_text(record['b'])} breaks the shift congruence"
        return None
    if kind == "recompose":
        if code != 0 or not ref.is_shift_pair(record["word"], req.k, word):
            return f"word {_text(record['word'])} breaks the shift congruence"
        return None
    if kind == "strip":
        if code != 0 or record["result"] != ref.strip_first_one(word):
            return f"strip gave {_text(record['result'])}"
        return None
    street = kind.split("-")[1]
    if street == "standard":
        labels = ref.standard_street(req.n)
    elif street == "prime":
        labels = ref.prime_street(req.n)
    else:
        labels = ref.rotated_street(req.n, req.k)
    assignment, failed_car = ref.park(word, labels)
    got = (code, record["labels"], record["assignment"], record["failed_car"])
    if got != (0 if assignment else 1, labels, assignment, failed_car):
        return (f"on the {street} street got exit {code}, failed car {record['failed_car']}, "
                f"expected failed car {failed_car}")
    return None


class WordRequests:
    """One op is one in-process ``parkfunc.cli.run(argv)`` call with --json.

    One caller, closed loop.  The mix is fixed: ``per_pass`` holds how many
    requests of each kind and word length one pass makes; the seed draws the
    words and the order.  An item is one request.
    """

    name = "word-requests"
    kinds = ("check", "check-prime", "decompose", "recompose", "simulate-standard",
             "simulate-prime", "simulate-rotated", "strip", "sample")
    lengths = (8, 64, 512, 2048)

    def __init__(self, seed, per_pass=None):
        rng = random.Random(seed)
        self.seed = seed
        self.ops = [
            _make_request(rng, kind, n)
            for (kind, n), count in sorted((per_pass or DEFAULT_MIX).items())
            for _ in range(count)
        ]
        rng.shuffle(self.ops)

    def warm(self):
        # One untimed pass; a request that raises here fails again when timed.
        for req in self.ops:
            with contextlib.suppress(Exception):
                self.call(req)

    def call(self, req):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = parkfunc.cli.run(req.argv)
        return code, out.getvalue()

    def items(self, req):
        return 1

    def describe(self, req):
        return f"parkfunc {' '.join(a if len(a) < 40 else a[:37] + '...' for a in req.argv)}"

    def check(self, req, out):
        code, text = out
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code}, stdout is not one JSON record: {text[:60]!r}"
        return _check_request(req, code, record)


# Requests per pass by (kind, word length).  Short words dominate so that the
# median request is bound by argument parsing.  The p99 is meant to fall
# inside one class, `decompose` on 2048 entries (24 of 1023 requests): only
# `simulate` on the prime and rotated streets at 2048 entries is slower, so
# the p99 rank lies a few requests into the class, plus the short requests
# that the machine happens to slow down past it.
DEFAULT_MIX = {
    **{(kind, n): count
       for kind in WordRequests.kinds if kind != "sample"
       for n, count in zip(WordRequests.lengths, (56, 56, 8, 1))},
    ("decompose", 2048): 24,
    ("sample", 8): 24,
    ("sample", 64): 8,
}

WORKLOADS = {w.name: w for w in (ShiWalk, OracleScan, WordRequests)}
