import argparse
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import parkfunc.cli
import parkfunc.cycle_lemma
import parkfunc.shi
from parkfunc import format_word
from parkfunc.cli import render_street, run
from conftest import (
    CARS_PRIME15, CARS_STANDARD15, PRIME15, SHIFT15, WORD15, oversize_entry, python_env,
    run_python,
)

GOLDEN = Path(__file__).parent / "golden"
WORD15_ARG = format_word(WORD15)
PRIME15_ARG = format_word(PRIME15)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("simulate_standard.txt",
             ["simulate", "--word", WORD15_ARG, "--street", "standard"]),
            ("simulate_prime.txt",
             ["simulate", "--word", PRIME15_ARG, "--street", "prime"]),
            ("simulate_rotated.txt",
             ["simulate", "--word", WORD15_ARG, "--street", "rotated",
              "--k", str(SHIFT15)]),
        ],
    )
    def test_street_diagrams(self, capsys, golden, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_goldens_encode_the_known_assignments(self):
        # The golden files must stay in lockstep with the frozen outcomes.
        standard = render_street(CARS_STANDARD15, tuple(range(1, 16)))
        assert (GOLDEN / "simulate_standard.txt").read_text() == standard + "\n"
        prime = render_street(CARS_PRIME15, (1,) + tuple(range(1, 15)))
        assert (GOLDEN / "simulate_prime.txt").read_text() == prime + "\n"
        rotated = render_street(
            CARS_PRIME15, (10, 10, 11, 12, 13, 14) + tuple(range(1, 10))
        )
        assert (GOLDEN / "simulate_rotated.txt").read_text() == rotated + "\n"


# Exact stdout, stderr and exit code of each word subcommand, in text and
# --json, of the verify and shi records, and of each bad-input error and a
# guard trip.  JSON records hold the words as tuples and the text view is
# built only when printed; neither may change a byte.
TRANSCRIPTS = [
    (('check', '--word', '1,4,2,1'), 0, 'true\n', ''),
    (('check', '--word', '1,4,2,1', '--json'), 0, '{"command": "check", "word": [1, 4, 2, 1], "prime": false, "result": true}\n', ''),
    (('check', '--word', '2,2'), 1, 'false\n', ''),
    (('check', '--word', '2,2', '--json'), 1, '{"command": "check", "word": [2, 2], "prime": false, "result": false}\n', ''),
    (('check', '--word', '1,1,2', '--prime'), 0, 'true\n', ''),
    (('check', '--word', '1,1,2', '--prime', '--json'), 0, '{"command": "check", "word": [1, 1, 2], "prime": true, "result": true}\n', ''),
    (('check', '--word', '1 2 2', '--prime'), 1, 'false\n', ''),
    (('check', '--word', '1 2 2', '--prime', '--json'), 1, '{"command": "check", "word": [1, 2, 2], "prime": true, "result": false}\n', ''),
    (('decompose', '--word', '3,2,3,1'), 0, 'k=3 b=1,3,1,2\n', ''),
    (('decompose', '--word', '3,2,3,1', '--json'), 0, '{"command": "decompose", "word": [3, 2, 3, 1], "k": 3, "b": [1, 3, 1, 2]}\n', ''),
    (('recompose', '--word', '2,1,2,3', '--k', '2'), 0, '3,2,3,1\n', ''),
    (('recompose', '--word', '2,1,2,3', '--k', '2', '--json'), 0, '{"command": "recompose", "b": [2, 1, 2, 3], "k": 2, "word": [3, 2, 3, 1]}\n', ''),
    (('simulate', '--word', '2,1,2'), 0, 'cars  | 2 1 3\nspots | 1 2 3\n', ''),
    (('simulate', '--word', '2,1,2', '--json'), 0, '{"command": "simulate", "word": [2, 1, 2], "street": "standard", "k": null, "labels": [1, 2, 3], "success": true, "assignment": [2, 1, 3], "failed_car": null}\n', ''),
    (('simulate', '--word', '2,2', '--street', 'standard'), 1, 'car 2 leaves the street\n', ''),
    (('simulate', '--word', '2,2', '--street', 'standard', '--json'), 1, '{"command": "simulate", "word": [2, 2], "street": "standard", "k": null, "labels": [1, 2], "success": false, "assignment": null, "failed_car": 2}\n', ''),
    (('simulate', '--word', '1,1,2', '--street', 'prime'), 0, 'cars  | 1 2 3\nspots | 1 1 2\n', ''),
    (('simulate', '--word', '1,1,2', '--street', 'prime', '--json'), 0, '{"command": "simulate", "word": [1, 1, 2], "street": "prime", "k": null, "labels": [1, 1, 2], "success": true, "assignment": [1, 2, 3], "failed_car": null}\n', ''),
    (('simulate', '--word', '2,2,2', '--street', 'prime'), 1, 'car 2 leaves the street\n', ''),
    (('simulate', '--word', '2,2,2', '--street', 'prime', '--json'), 1, '{"command": "simulate", "word": [2, 2, 2], "street": "prime", "k": null, "labels": [1, 1, 2], "success": false, "assignment": null, "failed_car": 2}\n', ''),
    (('simulate', '--word', '3,2,3,1', '--street', 'rotated', '--k', '3'), 0, 'cars  | 1 3 4 2\nspots | 3 3 1 2\n', ''),
    (('simulate', '--word', '3,2,3,1', '--street', 'rotated', '--k', '3', '--json'), 0, '{"command": "simulate", "word": [3, 2, 3, 1], "street": "rotated", "k": 3, "labels": [3, 3, 1, 2], "success": true, "assignment": [1, 3, 4, 2], "failed_car": null}\n', ''),
    (('simulate', '--word', '3,2,3,1', '--street', 'rotated', '--k', '1'), 1, 'car 3 leaves the street\n', ''),
    (('simulate', '--word', '3,2,3,1', '--street', 'rotated', '--k', '1', '--json'), 1, '{"command": "simulate", "word": [3, 2, 3, 1], "street": "rotated", "k": 1, "labels": [1, 1, 2, 3], "success": false, "assignment": null, "failed_car": 3}\n', ''),
    (('simulate', '--word', '10,1,2,3,4,5,6,7,8,9'), 0, 'cars  |  2  3  4  5  6  7  8  9 10  1\nspots |  1  2  3  4  5  6  7  8  9 10\n', ''),
    (('simulate', '--word', '10,1,2,3,4,5,6,7,8,9', '--json'), 0, '{"command": "simulate", "word": [10, 1, 2, 3, 4, 5, 6, 7, 8, 9], "street": "standard", "k": null, "labels": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "success": true, "assignment": [2, 3, 4, 5, 6, 7, 8, 9, 10, 1], "failed_car": null}\n', ''),
    (('strip', '--word', '2,1,1'), 0, '2,1\n', ''),
    (('strip', '--word', '2,1,1', '--json'), 0, '{"command": "strip", "word": [2, 1, 1], "result": [2, 1]}\n', ''),
    (('sample', '--n', '5', '--seed', '7', '--count', '3', '--json'), 0, '{"command": "sample", "n": 5, "seed": 7, "count": 3, "words": [[3, 2, 4, 1, 1], [1, 3, 1, 2, 1], [2, 1, 1, 2, 3]]}\n', ''),
    (('verify', '--what', 'bijection', '--n', '4', '--json'), 0, '{"command": "verify", "what": "bijection", "n": 4, "result": true}\n', ''),
    (('shi', '--n', '2', '--json'), 0, '{"command": "shi", "n": 2, "regions": [{"signs": "+-", "label": [1, 1], "bounded": true, "depth": 0}, {"signs": "++", "label": [1, 2], "bounded": false, "depth": 1}, {"signs": "--", "label": [2, 1], "bounded": false, "depth": 1}]}\n', ''),
    (('check', '--word', ' , '), 2, '', 'error: empty word literal\n'),
    (('check', '--word', ' , ', '--json'), 2, '', 'error: empty word literal\n'),
    (('check', '--word', '1,0,1'), 2, '', "error: bad word entry '0': expected a positive integer\n"),
    (('check', '--word', '1,0,1', '--json'), 2, '', "error: bad word entry '0': expected a positive integer\n"),
    (('check', '--word', '1,x,00'), 2, '', "error: bad word entry 'x': expected a positive integer\n"),
    (('check', '--word', '1,x,00', '--json'), 2, '', "error: bad word entry 'x': expected a positive integer\n"),
    (('check', '--word', '1,²'), 2, '', "error: bad word entry '²': expected a positive integer\n"),
    (('check', '--word', '1,²', '--json'), 2, '', "error: bad word entry '²': expected a positive integer\n"),
    (('check', '--word', '1,-2'), 2, '', "error: bad word entry '-2': expected a positive integer\n"),
    (('check', '--word', '1,-2', '--json'), 2, '', "error: bad word entry '-2': expected a positive integer\n"),
    (('check', '--word', '1,5,1'), 2, '', 'error: word entry 5 exceeds the allowed maximum label 3\n'),
    (('check', '--word', '1,5,1', '--json'), 2, '', 'error: word entry 5 exceeds the allowed maximum label 3\n'),
    (('check', '--word', '1,5,1', '--prime'), 2, '', 'error: word entry 5 exceeds the allowed maximum label 3\n'),
    (('check', '--word', '1,5,1', '--prime', '--json'), 2, '', 'error: word entry 5 exceeds the allowed maximum label 3\n'),
    (('decompose', '--word', '1'), 2, '', 'error: decompose needs a word of length >= 2\n'),
    (('decompose', '--word', '1', '--json'), 2, '', 'error: decompose needs a word of length >= 2\n'),
    (('decompose', '--word', '1,2'), 2, '', 'error: word entry 2 exceeds the allowed maximum label 1\n'),
    (('decompose', '--word', '1,2', '--json'), 2, '', 'error: word entry 2 exceeds the allowed maximum label 1\n'),
    (('recompose', '--word', '1', '--k', '1'), 2, '', 'error: recompose needs a word of length >= 2\n'),
    (('recompose', '--word', '1', '--k', '1', '--json'), 2, '', 'error: recompose needs a word of length >= 2\n'),
    (('recompose', '--word', '1,3,1', '--k', '1'), 2, '', 'error: word entry 3 exceeds the allowed maximum label 2\n'),
    (('recompose', '--word', '1,3,1', '--k', '1', '--json'), 2, '', 'error: word entry 3 exceeds the allowed maximum label 2\n'),
    (('recompose', '--word', '1,2,1', '--k', '3'), 2, '', 'error: shift k must lie in [1, 2], got 3\n'),
    (('recompose', '--word', '1,2,1', '--k', '3', '--json'), 2, '', 'error: shift k must lie in [1, 2], got 3\n'),
    (('recompose', '--word', '1,2,1', '--k', '0'), 2, '', 'error: shift k must lie in [1, 2], got 0\n'),
    (('recompose', '--word', '1,2,1', '--k', '0', '--json'), 2, '', 'error: shift k must lie in [1, 2], got 0\n'),
    (('simulate', '--word', '1,1', '--street', 'rotated'), 2, '', 'error: the rotated street requires --k\n'),
    (('simulate', '--word', '1,1', '--street', 'rotated', '--json'), 2, '', 'error: the rotated street requires --k\n'),
    (('simulate', '--word', '1,1', '--k', '1'), 2, '', 'error: --k only applies to --street rotated\n'),
    (('simulate', '--word', '1,1', '--k', '1', '--json'), 2, '', 'error: --k only applies to --street rotated\n'),
    (('simulate', '--word', '1,1,1', '--street', 'rotated', '--k', '3'), 2, '', 'error: rotation k must lie in [1, 2], got 3\n'),
    (('simulate', '--word', '1,1,1', '--street', 'rotated', '--k', '3', '--json'), 2, '', 'error: rotation k must lie in [1, 2], got 3\n'),
    (('simulate', '--word', '1', '--street', 'prime'), 2, '', 'error: prime street needs n >= 2\n'),
    (('simulate', '--word', '1', '--street', 'prime', '--json'), 2, '', 'error: prime street needs n >= 2\n'),
    (('simulate', '--word', '5,9,1'), 2, '', 'error: preference 5 does not appear on the street\n'),
    (('simulate', '--word', '5,9,1', '--json'), 2, '', 'error: preference 5 does not appear on the street\n'),
    (('simulate', '--word', '1,3,3', '--street', 'prime'), 2, '', 'error: preference 3 does not appear on the street\n'),
    (('simulate', '--word', '1,3,3', '--street', 'prime', '--json'), 2, '', 'error: preference 3 does not appear on the street\n'),
    (('strip', '--word', '2,2'), 2, '', 'error: word has no entry equal to 1, nothing to strip\n'),
    (('strip', '--word', '2,2', '--json'), 2, '', 'error: word has no entry equal to 1, nothing to strip\n'),
    (('sample', '--n', '4', '--seed', '1', '--count', '0', '--json'), 2, '', 'error: --count must be at least 1\n'),
    (('sample', '--n', '4', '--json'), 2, '', 'error: --seed is required with --json for reproducibility\n'),
    (('sample', '--n', '1', '--seed', '1', '--json'), 2, '', 'error: sampling needs n >= 2\n'),
    (('sample', '--n', '1000001'), 3, '', 'error: sample is guarded to 1000000 word entries at once (got 1000001)\n'),
    (('sample', '--n', '8', '--seed', '1', '--count', '125001', '--json'), 3, '', 'error: sample is guarded to 1000000 word entries at once (got 1000008)\n'),
    (('verify', '--what', 'bijection', '--n', '9', '--json'), 3, '', 'error: verify_bijection is guarded to n <= 8 (got n=9)\n'),
]


class TestByteExactOutput:
    @pytest.mark.parametrize("argv,code,out,err", TRANSCRIPTS,
                             ids=[" ".join(t[0]) for t in TRANSCRIPTS])
    def test_transcript(self, capsys, argv, code, out, err):
        assert invoke(capsys, *argv) == (code, out, err)

    def test_oversize_entry_is_named(self, capsys):
        # More digits than int() converts: the message names the entry, cut short.
        entry = oversize_entry()
        code, out, err = invoke(capsys, "check", "--word", f"1,{entry}", "--json")
        assert (code, out) == (2, "")
        assert err == f"error: bad word entry '{entry[:20]}\u2026': expected a positive integer\n"


# One --json request per word subcommand and outcome: (argv, exit code).
JSON_REQUESTS = [
    (["check", "--word", "1,4,2,1"], 0),
    (["check", "--word", "2,2"], 1),
    (["check", "--word", "1,1,2", "--prime"], 0),
    (["decompose", "--word", "3,2,3,1"], 0),
    (["recompose", "--word", "2,1,2,3", "--k", "2"], 0),
    (["simulate", "--word", "2,1,2"], 0),
    (["simulate", "--word", "2,2"], 1),
    (["simulate", "--word", "1,1,2", "--street", "prime"], 0),
    (["simulate", "--word", "2,2,2", "--street", "prime"], 1),
    (["simulate", "--word", "3,2,3,1", "--street", "rotated", "--k", "3"], 0),
    (["simulate", "--word", "3,2,3,1", "--street", "rotated", "--k", "1"], 1),
    (["strip", "--word", "2,1,1"], 0),
    (["sample", "--n", "5", "--seed", "7", "--count", "3"], 0),
]


class TestJsonBuildsNoText:
    def test_json_mode_formats_no_text(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the text view was built under --json")

        monkeypatch.setattr(parkfunc.cli, "render_street", refuse)
        monkeypatch.setattr(parkfunc.cli, "format_word", refuse)
        for argv, code in JSON_REQUESTS:
            got, out, err = invoke(capsys, *argv, "--json")
            assert (got, err) == (code, ""), argv
            assert json.loads(out)["command"] == argv[0]

    def test_text_mode_still_formats(self, capsys, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(parkfunc.cli, "render_street",
                            counted("render_street", render_street))
        monkeypatch.setattr(parkfunc.cli, "format_word", counted("format_word", format_word))
        expected = {
            "decompose": ["format_word"], "recompose": ["format_word"],
            "strip": ["format_word"], "simulate": ["render_street"],
            "sample": ["format_word"] * 3,
        }
        for argv, code in JSON_REQUESTS:
            calls.clear()
            assert invoke(capsys, *argv)[0] == code, argv
            wanted = expected.get(argv[0], []) if code == 0 else []
            assert calls == wanted, argv


class TestCheck:
    def test_prime_true(self, capsys):
        code, out, _ = invoke(capsys, "check", "--word", "1,1", "--prime")
        assert (code, out) == (0, "true\n")

    def test_false_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "check", "--word", "2,2")
        assert (code, out) == (1, "false\n")

    def test_domain_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "check", "--word", "1,5,1")
        assert code == 2
        assert "error" in err

    def test_non_decimal_digit_is_a_bad_entry(self, capsys):
        # '²'.isdigit() is true, but int() rejects it.
        code, _, err = invoke(capsys, "check", "--word", "1,²")
        assert code == 2
        assert err.startswith("error: bad word entry '²'")

    def test_json_record(self, capsys):
        code, out, _ = invoke(capsys, "check", "--word", "1,1", "--json")
        record = json.loads(out)
        assert record == {
            "command": "check", "word": [1, 1], "prime": False, "result": True,
        }
        assert code == 0


class TestDecomposeRecompose:
    def test_worked_example_text(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--word", WORD15_ARG)
        assert code == 0
        assert out == f"k=10 b={PRIME15_ARG}\n"

    def test_json_matches_text(self, capsys):
        _, out, _ = invoke(capsys, "decompose", "--word", WORD15_ARG, "--json")
        record = json.loads(out)
        assert record["k"] == SHIFT15
        assert tuple(record["b"]) == PRIME15

    def test_recompose_inverts(self, capsys):
        code, out, _ = invoke(
            capsys, "recompose", "--word", PRIME15_ARG, "--k", str(SHIFT15)
        )
        assert (code, out) == (0, WORD15_ARG + "\n")

    def test_decompose_domain_error(self, capsys):
        code, _, _ = invoke(capsys, "decompose", "--word", "1,2")
        assert code == 2


class TestSimulate:
    def test_failure_exit_and_message(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--word", "2,2")
        assert code == 1
        assert out == "car 2 leaves the street\n"

    def test_failure_json(self, capsys):
        _, out, _ = invoke(capsys, "simulate", "--word", "2,2", "--json")
        record = json.loads(out)
        assert record["success"] is False
        assert record["failed_car"] == 2
        assert record["assignment"] is None

    def test_rotated_requires_k(self, capsys):
        code, _, _ = invoke(capsys, "simulate", "--word", "1,1",
                            "--street", "rotated")
        assert code == 2

    def test_k_rejected_elsewhere(self, capsys):
        code, _, _ = invoke(capsys, "simulate", "--word", "1,1", "--k", "1")
        assert code == 2

    def test_success_json_assignment(self, capsys):
        _, out, _ = invoke(capsys, "simulate", "--word", WORD15_ARG, "--json")
        record = json.loads(out)
        assert tuple(record["assignment"]) == CARS_STANDARD15
        assert record["labels"] == list(range(1, 16))


class TestStrip:
    def test_strip(self, capsys):
        code, out, _ = invoke(capsys, "strip", "--word", "2,1,1")
        assert (code, out) == (0, "2,1\n")

    def test_strip_without_one(self, capsys):
        code, _, _ = invoke(capsys, "strip", "--word", "2,2")
        assert code == 2


class TestCount:
    def test_prime_four(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "4", "--prime")
        assert (code, out) == (0, "matching=27 formula=27 agrees=true\n")

    def test_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "count", "--n", "4", "--json")
        record = json.loads(out)
        assert next(iter(record)) == "command" and record["command"] == "count"
        assert record["matching"] == record["formula_value"] == 125
        assert record["agrees"] is True
        assert record["total_words"] == 256
        assert isinstance(record["elapsed"], float)

    def test_guard_exits_three(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "40")
        assert code == 3
        assert "guard" in err and "force" not in err


class TestVerify:
    @pytest.mark.parametrize("what,n", [
        ("bijection", 4), ("proposition", 3), ("pak-stanley", 3),
    ])
    def test_each_checker(self, capsys, what, n):
        code, out, _ = invoke(capsys, "verify", "--n", str(n), "--what", what)
        assert (code, out) == (0, "true\n")

    def test_unknown_checker_rejected(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--n", "3", "--what", "magic")
        assert code == 2

    def test_guard(self, capsys):
        code, _, err = invoke(capsys, "verify", "--n", "9", "--what", "bijection")
        assert code == 3 and "force" not in err

    def test_proposition_guard(self, capsys):
        code, _, err = invoke(capsys, "verify", "--n", "10", "--what", "proposition")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("what", ["bijection", "proposition", "pak-stanley"])
    def test_n_below_the_domain_is_invalid_not_guarded(self, capsys, what):
        code, _, err = invoke(capsys, "verify", "--n", "1", "--what", what)
        assert code == 2
        assert "needs n >= 2" in err and "force" not in err


class TestSample:
    def test_deterministic(self, capsys):
        code, first, _ = invoke(capsys, "sample", "--n", "6", "--seed", "3",
                                "--count", "4")
        assert code == 0
        _, second, _ = invoke(capsys, "sample", "--n", "6", "--seed", "3",
                              "--count", "4")
        assert first == second
        assert len(first.splitlines()) == 4

    def test_singleton(self, capsys):
        _, out, _ = invoke(capsys, "sample", "--n", "2", "--seed", "0")
        assert out == "1,1\n"

    def test_json_needs_seed(self, capsys):
        code, _, err = invoke(capsys, "sample", "--n", "4", "--json")
        assert code == 2
        assert "seed" in err

    def test_clock_seed_is_echoed_and_repeats_the_run(self, capsys):
        argv = ("sample", "--n", "6", "--count", "5")
        code, first, err = invoke(capsys, *argv)
        label, seed = err.split()
        assert (code, label) == (0, "seed:")
        assert invoke(capsys, *argv, "--seed", seed) == (0, first, "")

    def test_bad_n_without_seed_echoes_no_seed(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1")
        assert (code, out) == (2, "")
        assert "needs n >= 2" in err and "seed:" not in err

    def test_json_words(self, capsys):
        _, out, _ = invoke(capsys, "sample", "--n", "4", "--seed", "11",
                           "--count", "2", "--json")
        record = json.loads(out)
        assert record["seed"] == 11
        assert len(record["words"]) == 2

    def test_text_and_json_draw_the_same_words(self, capsys):
        argv = ("sample", "--n", "7", "--seed", "5", "--count", "30")
        _, text, _ = invoke(capsys, *argv)
        _, blob, _ = invoke(capsys, *argv, "--json")
        words = json.loads(blob)["words"]
        assert text.splitlines() == [format_word(w) for w in words]

    def test_text_mode_draws_as_it_prints(self, monkeypatch):
        drawn = 0
        decompose = parkfunc.cycle_lemma.decompose

        def counted(word):
            nonlocal drawn
            drawn += 1
            return decompose(word)

        class OneLinePipe(io.StringIO):
            """A stdout whose reader leaves after the first line."""

            def write(self, text):
                if "\n" in self.getvalue():
                    raise BrokenPipeError
                return super().write(text)

        out = OneLinePipe()
        monkeypatch.setattr(parkfunc.cycle_lemma, "decompose", counted)
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(BrokenPipeError):
            run(["sample", "--n", "6", "--seed", "1", "--count", "100000"])
        assert out.getvalue().count("\n") == 1
        assert drawn <= 2


class TestShi:
    def test_two_car_listing(self, capsys):
        code, out, _ = invoke(capsys, "shi", "--n", "2")
        assert code == 0
        assert out == (
            "+- 1,1 true 0\n"
            "++ 1,2 false 1\n"
            "-- 2,1 false 1\n"
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_json_matches_text(self, capsys, n):
        _, text, _ = invoke(capsys, "shi", "--n", str(n))
        _, blob, _ = invoke(capsys, "shi", "--n", str(n), "--json")
        records = json.loads(blob)["regions"]
        lines = text.splitlines()
        assert len(records) == len(lines) == (n + 1) ** (n - 1)
        for line, record in zip(lines, records):
            signs, label, bounded, depth = line.split()
            assert signs == record["signs"]
            assert [int(x) for x in label.split(",")] == record["label"]
            assert bounded == str(record["bounded"]).lower()
            assert int(depth) == record["depth"]

    # A guard trip exits 3 and an n below the domain is invalid input (2);
    # neither message offers `force`, which no flag can set.
    @pytest.mark.parametrize("n,code,err", [
        ("7", 3, "error: enumerate_regions is guarded to n <= 6 (got n=7)\n"),
        ("1", 2, "error: enumerate_regions needs n >= 2 (got n=1)\n"),
    ])
    def test_errors_are_the_same_in_both_modes(self, capsys, n, code, err):
        assert invoke(capsys, "shi", "--n", n) == (code, "", err)
        assert invoke(capsys, "shi", "--n", n, "--json") == (code, "", err)

    def test_decodes_no_sign_vector(self, capsys, monkeypatch):
        def refuse(n, signs):
            raise AssertionError("parkfunc shi decoded a sign vector")

        monkeypatch.setattr(parkfunc.shi, "_decode", refuse)
        code, text, _ = invoke(capsys, "shi", "--n", "4")
        assert code == 0 and len(text.splitlines()) == 125
        code, blob, _ = invoke(capsys, "shi", "--n", "4", "--json")
        assert code == 0 and len(json.loads(blob)["regions"]) == 125


HELP = ("-h", "--help"), "help", False, None, argparse.SUPPRESS, None, \
    "show this help message and exit"
JSON = ("--json",), "json", False, None, False, None, "emit a JSON record"
N = ("--n",), "n", True, int, None, None, None
WORD = ("--word",), "word", True, None, None, None, None

# Each parser's help string (the description at the top level), then each
# action's option strings, dest, required, type, default, choices and help,
# in order.  Any change to a flag, its order or its help text shows here.
SURFACE = [
    (None, "Parking functions: check, decompose, simulate, count, regions.", [
        HELP,
        ((), "command", True, None, None,
         ["check", "decompose", "recompose", "simulate", "strip", "count", "verify",
          "sample", "shi"], None),
    ]),
    ("check", "membership predicates", [
        HELP, JSON,
        (("--word",), "word", True, None, None, None, "comma/space separated entries"),
        (("--prime",), "prime", False, None, False, None, "test primality instead"),
    ]),
    ("decompose", "split a word over [n-1] into shift k and prime word b", [
        HELP, JSON, WORD,
    ]),
    ("recompose", "rebuild the word from b and k", [
        HELP, JSON,
        (("--word",), "word", True, None, None, None, "the prime word b"),
        (("--k",), "k", True, int, None, None, None),
    ]),
    ("simulate", "run the parking process", [
        HELP, JSON, WORD,
        (("--street",), "street", False, None, "standard",
         ["standard", "prime", "rotated"], None),
        (("--k",), "k", False, int, None, None, "rotation, only with --street rotated"),
    ]),
    ("strip", "drop the first 1 of a word", [
        HELP, JSON, WORD,
    ]),
    ("count", "exhaustive count against the closed form", [
        HELP, JSON, N,
        (("--prime",), "prime", False, None, False, None, None),
    ]),
    ("verify", "exhaustive verifications", [
        HELP, JSON, N,
        (("--what",), "what", True, None, None,
         ["bijection", "proposition", "pak-stanley"], None),
    ]),
    ("sample", "uniform prime parking functions", [
        HELP, JSON, N,
        (("--seed",), "seed", False, int, None, None, None),
        (("--count",), "count", False, int, 1, None, None),
    ]),
    ("shi", "list the labeled regions of the arrangement", [
        HELP, JSON, N,
    ]),
]


def surface(parser):
    return [
        (tuple(a.option_strings), a.dest, a.required, a.type, a.default,
         list(a.choices) if a.choices is not None else None, a.help)
        for a in parser._actions
    ]


class TestSurface:
    def test_every_parser_keeps_its_flags(self):
        parser = parkfunc.cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = [(None, parser.description, surface(parser))] + [
            (choice.dest, choice.help, surface(sub.choices[choice.dest]))
            for choice in sub._choices_actions
        ]
        assert found == SURFACE

    # SHA-256 of the stdout of `parkfunc shi --n 5`, in each view.
    @pytest.mark.parametrize("argv,sha", [
        (("shi", "--n", "5"),
         "b081713037adb6926d8e70f3d377800ecdcecb39de4a4fdb314f8ee1cf838a9b"),
        (("shi", "--n", "5", "--json"),
         "49c01e2710fce6626473380e468f15d3536828014dbd596bfc1adc7d0749fe1a"),
    ])
    def test_shi_listing_is_unchanged(self, capsys, argv, sha):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestParserReuse:
    """`run` builds one parser per process; no call may see another's values."""

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        code, out, _ = invoke(capsys, "check", "--word", "1,2", "--prime", "--json")
        assert code == 1 and json.loads(out)["prime"] is True
        assert invoke(capsys, "check", "--word", "1,2") == (0, "true\n", "")

    def test_k_does_not_leak_into_a_plain_simulate(self, capsys):
        code, _, _ = invoke(capsys, "simulate", "--word", "1,1",
                            "--street", "rotated", "--k", "1", "--json")
        assert code == 0
        code, out, _ = invoke(capsys, "simulate", "--word", "1,1", "--json")
        record = json.loads(out)
        assert code == 0
        assert (record["street"], record["k"]) == ("standard", None)

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = 0
        build_parser = parkfunc.cli.build_parser

        def counted():
            nonlocal built
            built += 1
            return build_parser()

        monkeypatch.setattr(parkfunc.cli, "build_parser", counted)
        parkfunc.cli._parser.cache_clear()
        try:
            assert invoke(capsys, "check", "--word", "1,1")[0] == 0
            assert invoke(capsys, "strip", "--word", "2,1,1")[0] == 0
            assert invoke(capsys, "check", "--bogus")[0] == 2
            assert built == 1
        finally:
            parkfunc.cli._parser.cache_clear()


# Requests that `run` parses with the subcommand's parser alone, and requests
# that must fall back to the full parser: both must match a full parse.
DISPATCH_REQUESTS = [
    ["check", "--word", "1,1", "--prime", "--json"],
    ["decompose", "--word", "3,2,3,1"],
    ["recompose", "--word", "2,1,2,3", "--k", "2", "--json"],
    ["simulate", "--word", "3,2,3,1", "--street", "rotated", "--k", "3"],
    ["strip", "--word", "2,1,1", "--json"],
    ["count", "--n", "3", "--prime"],
    ["verify", "--n", "3", "--what", "bijection", "--json"],
    ["sample", "--n", "3", "--seed", "1", "--count", "2"],
    ["shi", "--n", "2", "--json"],
    *([name, "-h"] for name in
      ("check", "decompose", "recompose", "simulate", "strip", "count", "verify",
       "sample", "shi")),
    ["check", "--wo", "1"],
    ["check", "--prime"],
    ["count", "--n", "x"],
    ["simulate", "--word", "1", "--street", "diagonal"],
    ["check", "--word", "1", "extra"],
    ["check", "--word", "1", "--bogus"],
    ["--json", "check", "--word", "1"],
    ["--help"],
    ["frobnicate", "--word", "1"],
    [],
    ("check", "--word", "1,2"),
]


def full_parse(argv):
    return parkfunc.cli.build_parser().parse_args(argv)


class TestDispatch:
    """`run` parses a request as a fresh full parser would, byte for byte."""

    @staticmethod
    def parsed(capsys, parse, argv):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", DISPATCH_REQUESTS, ids=repr)
    def test_namespace_matches_a_full_parse(self, capsys, argv):
        fast = self.parsed(capsys, parkfunc.cli._parse, argv)
        assert fast == self.parsed(capsys, full_parse, argv)

    @pytest.mark.parametrize("argv", DISPATCH_REQUESTS, ids=repr)
    def test_run_matches_a_full_parse(self, capsys, monkeypatch, argv):
        fast = (run(argv), *capsys.readouterr())
        monkeypatch.setattr(parkfunc.cli, "_parse", full_parse)
        assert fast == (run(argv), *capsys.readouterr())

    def test_a_named_subcommand_skips_the_top_level_parse(self, capsys, monkeypatch):
        def refuse(parser, argv):
            raise AssertionError(f"{parser.prog} parsed all of {argv}")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert invoke(capsys, "strip", "--word", "2,1,1", "--json")[0] == 0

    def test_import_builds_no_parser(self):
        done = run_python("-c", "import parkfunc, parkfunc.cli; "
                          "print(parkfunc.cli._parser.cache_info().currsize)")
        assert done.stdout == "0\n", done.stderr


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = invoke(capsys, "check", "--word", "1", "--bogus")
        assert code == 2
        # The next call in the same process is unaffected.
        assert invoke(capsys, "strip", "--word", "2,1,1") == (0, "2,1\n", "")

    def test_missing_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        # Twice, since run reuses one parser across calls.
        assert invoke(capsys, "--help")[0] == 0
        assert invoke(capsys, "--help")[0] == 0

    def test_python_dash_m_runs_the_cli(self):
        done = run_python("-m", "parkfunc", "check", "--word", "1,1,2", "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"] is True
        assert run_python("-m", "parkfunc", "check", "--word", "3,3,3").returncode == 1

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # As in `parkfunc sample ... | head -1`: the reader leaves after a line,
        # while the output is far larger than the pipe's buffer.
        with open(tmp_path / "stderr", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "parkfunc", "sample", "--n", "6",
                 "--seed", "1", "--count", "20000"],
                env=python_env(), stdout=subprocess.PIPE, stderr=err, text=True)
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err.seek(0)
            assert err.read() == ""
        assert first.count(",") == 5
        assert code == 1

    def test_interrupt_exits_130_quietly(self, capsys, monkeypatch):
        # Ctrl-C during a long request, such as a large `sample`, shows no traceback.
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(parkfunc.cli, "run", interrupted)
        with pytest.raises(SystemExit) as exc:
            try:
                parkfunc.cli.main()
            except KeyboardInterrupt:  # would stop the whole test run
                pytest.fail("main let KeyboardInterrupt through")
        assert exc.value.code == 130
        assert capsys.readouterr() == ("", "")

    def test_import_leaves_fractions_out(self):
        # Only the Shi witness points need fractions (and decimal behind it).
        done = run_python("-S", "-c", "import sys, parkfunc, parkfunc.cli; "
                          "print('fractions' in sys.modules)")
        assert done.stdout == "False\n", done.stderr

    def test_import_leaves_dataclasses_and_inspect_out(self):
        # The records are NamedTuples: dataclasses would bring inspect, ast,
        # dis and tokenize into every command's start-up.
        done = run_python("-S", "-c", "import sys, parkfunc, parkfunc.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert done.stdout == "[]\n", done.stderr
