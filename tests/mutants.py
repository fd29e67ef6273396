"""The mutant catalogue: deliberate faults in ``src/parkfunc`` and the tests that catch them.

Each row names a module under ``src/parkfunc``, the exact text to replace
(it must occur once in that module), the text put in its place, and the
Tier-1 node ids of which at least one must fail on the mutant.
``tests/test_mutants.py`` checks every row against the source, and every
node id against the test file it names, on each Tier-1 run, so a refactor
that moves a row's text or renames one of its tests must update the row.
``tests/run_mutants.py`` applies each row to a copy of ``src/`` and runs
its node ids there.  A new check that is written to catch a fault gets its
row here.
"""

from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "parkfunc"


class Mutant(NamedTuple):
    id: str
    file: str  # a module under src/parkfunc
    old: str
    new: str
    tests: tuple  # node ids, relative to the repo root


_DECODE_UP_CLOSURE = """\
    for p in range(n - 2, -1, -1):
        if m[p + 1] < m[p]:
            m[p] = m[p + 1]
"""

MUTANTS = (
    Mutant(
        "encode-always-bounded", "shi.py",
        "return tuple(signs), tuple(label), False",
        "return tuple(signs), tuple(label), True",
        ("tests/test_shi.py::TestRegions::test_two_cars_hand_enumeration",
         "tests/test_shi.py::TestBoundedness::test_strip_bounded_halves_not"),
    ),
    Mutant(
        "encode-k1-strict", "shi.py",
        "elif m[p] <= q:",
        "elif m[p] < q:",
        ("tests/test_shi.py::TestRegions::test_regions_equal_the_walk[3]",
         "tests/test_shi.py::TestFeasibility::test_engine_agrees_with_lattice_scan[3]"),
    ),
    Mutant(
        "encode-inversion-bumps-j", "shi.py",
        "label[i] += 1",
        "label[j] += 1",
        ("tests/test_shi.py::TestRegions::test_two_cars_hand_enumeration",
         "tests/test_shi.py::TestRegions::test_regions_equal_the_walk[3]"),
    ),
    Mutant(
        "decode-no-reencode", "shi.py",
        "return (w, m, bounded) if encoded == signs else None",
        "return w, m, bounded",
        ("tests/test_shi.py::TestDecoder::test_each_rule_rejects_its_own_vector",
         "tests/test_shi.py::TestFeasibility::test_engine_agrees_with_lattice_scan[3]"),
    ),
    Mutant(
        "decode-no-up-closure", "shi.py",
        _DECODE_UP_CLOSURE,
        "",
        ("tests/test_shi.py::TestDecoder::test_each_rule_rejects_its_own_vector"
         "[plus set not up-closed]",),
    ),
    Mutant(
        "prime-count-n1-empty-space", "enumeration.py",
        "_count_under(max(n - 1, 1), (1, *range(1, n)))",
        "_count_under(n - 1, (1, *range(1, n)))",
        ("tests/test_enumeration.py::test_count_prime_parking_functions[1-1]",),
    ),
    Mutant(
        "words-under-floor-strict", "enumeration.py",
        "floor = sum(map(j.__ge__, bounds))",
        "floor = sum(map(j.__gt__, bounds))",
        ("tests/test_enumeration.py::test_recurrence_weighs_each_sorted_word_by_its_orbit",),
    ),
    Mutant(
        "words-under-wrong-binomial-row", "enumeration.py",
        "math.comb(length - c, f - c)",
        "math.comb(length, f - c)",
        ("tests/test_enumeration.py::test_recurrence_matches_the_closed_forms[parking-2]",),
    ),
    Mutant(
        "count-without-recount", "enumeration.py",
        "if total != max_label**length:",
        "if total is None:",
        ("tests/test_enumeration.py::test_a_wrong_binomial_row_fails_the_count"
         "[count_parking_functions-3]",
         "tests/test_enumeration.py::test_no_single_wrong_binomial_moves_the_count_unseen"
         "[count_prime_parking_functions-4]"),
    ),
    Mutant(
        "words-under-last-label-dropped", "enumeration.py",
        "for j in range(1, max_label + 1):",
        "for j in range(1, max_label):",
        ("tests/test_enumeration.py::test_recurrence_matches_the_closed_forms[parking-2]",),
    ),
    Mutant(
        "proposition-no-shift-range", "enumeration.py",
        "if not 1 <= k <= m or masks[k - 1] == dead",
        "if masks[k - 1] == dead",
        ("tests/test_enumeration.py::test_wrong_shift_fails_both_verifiers[verify_proposition]",),
    ),
    Mutant(
        "proposition-moved-shift", "enumeration.py",
        "_shift(q) for q in _sorted_words(m, n)",
        "_shift(q) % m + 1 for q in _sorted_words(m, n)",
        ("tests/test_enumeration.py::test_verify_proposition",),
    ),
    Mutant(
        "proposition-stale-successors", "enumeration.py",
        "row, masks",
        "row, (0,) * m",
        ("tests/test_enumeration.py::test_verify_proposition",),
    ),
    Mutant(
        "bijection-no-shift-range", "enumeration.py",
        "if not 1 <= k <= m or operator.itemgetter",
        "if operator.itemgetter",
        ("tests/test_enumeration.py::test_wrong_shift_fails_both_verifiers[verify_bijection]",),
    ),
    Mutant(
        "proposition-no-open-street", "enumeration.py",
        "1 <= k <= m or masks[k - 1] == dead or",
        "1 <= k <= m or",
        ("tests/test_enumeration.py::test_one_wrong_orbit_fails_every_verifier[3-first]",),
    ),
    Mutant(
        "parks-sorted-strict", "core.py",
        "if x > i:",
        "if x >= i:",
        ("tests/test_core.py::TestPredicates::test_fifteen_car_example_is_parking",),
    ),
    Mutant(
        "prime-first-entry-unbounded", "core.py",
        "q[0] <= 1 and",
        "q[0] <= 2 and",
        ("tests/test_core.py::TestKernels::test_prime_sorted_is_strip_a_one_then_park[1]",),
    ),
    Mutant(
        "as-word-accepts-bool", "core.py",
        "not isinstance(x, int) or isinstance(x, bool) or x < 1",
        "not isinstance(x, int) or x < 1",
        ("tests/test_rejections.py::test_entry_rejections",),
    ),
    Mutant(
        "check-twin-no-range", "core.py",
        "_check_range(word, len(word))\n    return _parks_sorted",
        "return _parks_sorted",
        ("tests/test_cli.py::TestByteExactOutput::test_transcript[check --word 1,5,1]",
         "tests/test_cli.py::TestSurface::test_long_word_transcripts_are_unchanged[check]"),
    ),
    Mutant(
        "decompose-twin-no-range", "cycle_lemma.py",
        'return _decompose(_shift_range(word, "decompose needs"))',
        "return _decompose(word)",
        ("tests/test_cli.py::TestByteExactOutput::test_transcript[decompose --word 1,2 --json]",
         "tests/test_cli.py::TestSurface::test_long_word_transcripts_are_unchanged[decompose]"),
    ),
    Mutant(
        "recompose-twin-no-k-check", "cycle_lemma.py",
        '    _check_k(k, len(b), "shift")\n',
        "",
        ("tests/test_cli.py::TestByteExactOutput::test_transcript"
         "[recompose --word 1,2,1 --k 3 --json]",),
    ),
    Mutant(
        "decompose-first-maximum", "cycle_lemma.py",
        "if x - i >= top:",
        "if x - i > top:",
        ("tests/test_acceptance.py::test_criterion_2_bijection",
         "tests/test_cycle_lemma.py::TestClosedFormShift"
         "::test_a_repeated_largest_excess_goes_to_its_last_index[tuple]"),
    ),
    Mutant(
        "recompose-wrong-direction", "cycle_lemma.py",
        "_shift_table((1 - k) % m + 1, m)",
        "_shift_table(k, m)",
        ("tests/test_cycle_lemma.py::TestDecompose::test_exhaustive_roundtrip_prime_unique[4]",),
    ),
    Mutant(
        "emit-without-command", "cli.py",
        'json.dumps({"command": args.command, **record})',
        "json.dumps(record)",
        ("tests/test_cli.py::TestByteExactOutput::test_transcript"
         "[check --word 1,4,2,1 --json]",),
    ),
    Mutant(
        "sample-held-n-alone", "cli.py",
        "held = args.n * args.count if args.json else args.n",
        "held = args.n",
        ("tests/test_cli.py::TestByteExactOutput::test_transcript"
         "[sample --n 8 --seed 1 --count 125001 --json]",),
    ),
    Mutant(
        "interrupt-shows-traceback", "cli.py",
        "except KeyboardInterrupt:",
        "except ArithmeticError:",
        ("tests/test_cli.py::TestUsage::test_interrupt_exits_130_quietly",),
    ),
)
