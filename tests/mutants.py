"""The mutant catalogue: deliberate faults in ``src/parkfunc`` and the tests that catch them.

Each row names a module under ``src/parkfunc``, the exact text to replace
(it must occur once in that module), the text put in its place, and the
Tier-1 node ids of which at least one must fail on the mutant.
``tests/test_mutants.py`` checks every row against the source on each
Tier-1 run, so a refactor that moves a row's text must update the row.
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
        "rows[length - c][f - c]",
        "rows[length][f - c]",
        ("tests/test_enumeration.py::test_recurrence_matches_the_closed_forms[parking-2]",),
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
        "proposition-no-open-street", "enumeration.py",
        "1 <= k <= m or masks[k - 1] == dead or",
        "1 <= k <= m or",
        ("tests/test_enumeration.py::test_one_wrong_orbit_fails_every_verifier[3-first]",),
    ),
    Mutant(
        "decompose-first-maximum", "cycle_lemma.py",
        "i = n - 1 - excess[::-1].index(max(excess))",
        "i = excess.index(max(excess))",
        ("tests/test_acceptance.py::test_criterion_2_bijection",),
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
