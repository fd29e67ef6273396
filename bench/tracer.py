"""Per-layer tracing from outside the library.

The tracer replaces library functions at the module attributes their callers
look up (``parkfunc.shi.satisfiable`` is what ``is_feasible`` and
``is_bounded`` call, ``parkfunc.enumeration.decompose`` what the oracles
call, and so on) with a wrapper that times each call.  Nothing under
``src/`` changes.  Calls are folded into counters keyed by (function, parent
function) rather than kept as spans, because the per-word functions run
millions of times per sweep; a counter holds the calls, the inclusive time,
the time spent in traced children and the outcomes that count as a hit.
"""

import importlib
import time


def _true(result):
    return result is True


def _parked(outcome):
    return outcome.success


def _drawn(words):
    return len(words)


# (module, attribute, traced name, what counts as a hit).  One line per
# binding a caller uses; a function imported into several modules is wrapped
# in each, under one name.
PATCH_POINTS = (
    ("parkfunc.shi", "enumerate_regions", "shi.enumerate_regions", None),
    ("parkfunc.shi", "is_feasible", "shi.is_feasible", _true),
    ("parkfunc.shi", "is_bounded", "shi.is_bounded", _true),
    ("parkfunc.shi", "satisfiable", "feasibility.satisfiable", _true),
    ("parkfunc.enumeration", "count_parking_functions",
     "enumeration.count_parking_functions", None),
    ("parkfunc.enumeration", "count_prime_parking_functions",
     "enumeration.count_prime_parking_functions", None),
    ("parkfunc.enumeration", "verify_bijection", "enumeration.verify_bijection", _true),
    ("parkfunc.enumeration", "verify_proposition", "enumeration.verify_proposition", _true),
    ("parkfunc.enumeration", "is_parking_function", "core.is_parking_function", _true),
    ("parkfunc.enumeration", "is_prime_parking_function",
     "core.is_prime_parking_function", _true),
    ("parkfunc.enumeration", "simulate", "core.simulate", _parked),
    ("parkfunc.enumeration", "decompose", "cycle_lemma.decompose", None),
    ("parkfunc.enumeration", "recompose", "cycle_lemma.recompose", None),
    ("parkfunc.cycle_lemma", "decompose", "cycle_lemma.decompose", None),
    ("parkfunc.cycle_lemma", "scores", "cycle_lemma.scores", None),
    ("parkfunc.cycle_lemma", "is_prime_parking_function",
     "core.is_prime_parking_function", _true),
    ("parkfunc.cli", "run", "cli.run", None),
    ("parkfunc.cli", "build_parser", "cli.build_parser", None),
    ("parkfunc.cli", "parse_word", "core.parse_word", None),
    ("parkfunc.cli", "is_parking_function", "core.is_parking_function", _true),
    ("parkfunc.cli", "is_prime_parking_function", "core.is_prime_parking_function", _true),
    ("parkfunc.cli", "simulate", "core.simulate", _parked),
    ("parkfunc.cli", "standard_street", "core.standard_street", None),
    ("parkfunc.cli", "prime_street", "core.prime_street", None),
    ("parkfunc.cli", "rotated_street", "core.rotated_street", None),
    ("parkfunc.cli", "strip_first_one", "core.strip_first_one", None),
    ("parkfunc.cli", "format_word", "core.format_word", None),
    ("parkfunc.cli", "decompose", "cycle_lemma.decompose", None),
    ("parkfunc.cli", "recompose", "cycle_lemma.recompose", None),
    ("parkfunc.cli", "sample_primes", "cycle_lemma.sample_primes", _drawn),
)

ROOT = "bench"


class Tracer:
    """Installs the wrappers, accumulates counters, and restores on exit.

    ``stats[(name, parent)]`` is ``[calls, seconds, child_seconds, hits]``,
    where ``parent`` is the traced function the call was made under, or
    ``"bench"`` for a call from the benchmark itself.
    """

    def __init__(self):
        self.stats = {}
        self._stack = [[ROOT, 0.0]]
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, hit in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hit))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hit):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[1]
            if hit is not None:
                stat[3] += hit(result)
            return result

        return traced

    def total(self, name, parent=None):
        """Summed [calls, seconds, child_seconds, hits] of one function."""
        out = [0, 0.0, 0.0, 0]
        for (fn, par), stat in self.stats.items():
            if fn == name and parent in (None, par):
                out = [a + b for a, b in zip(out, stat)]
        return out
