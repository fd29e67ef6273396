import json
import subprocess
import sys
from pathlib import Path

import pytest

from parkfunc import format_word
from parkfunc.cli import render_street, run
from conftest import (
    CARS_PRIME15, CARS_STANDARD15, PRIME15, SHIFT15, WORD15, python_env, run_python,
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
        assert record["matching"] == record["formula_value"] == 125
        assert record["agrees"] is True
        assert record["total_words"] == 256
        assert isinstance(record["elapsed"], float)

    def test_guard_exits_three(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "40")
        assert code == 3
        assert "guard" in err


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
        code, _, _ = invoke(capsys, "verify", "--n", "9", "--what", "bijection")
        assert code == 3


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

    def test_json_words(self, capsys):
        _, out, _ = invoke(capsys, "sample", "--n", "4", "--seed", "11",
                           "--count", "2", "--json")
        record = json.loads(out)
        assert record["seed"] == 11
        assert len(record["words"]) == 2


class TestShi:
    def test_two_car_listing(self, capsys):
        code, out, _ = invoke(capsys, "shi", "--n", "2")
        assert code == 0
        assert out == (
            "+- 1,1 true 0\n"
            "++ 1,2 false 1\n"
            "-- 2,1 false 1\n"
        )

    def test_json_matches_text(self, capsys):
        _, text, _ = invoke(capsys, "shi", "--n", "3")
        _, blob, _ = invoke(capsys, "shi", "--n", "3", "--json")
        records = json.loads(blob)["regions"]
        lines = text.splitlines()
        assert len(records) == len(lines) == 16
        for line, record in zip(lines, records):
            signs, label, bounded, depth = line.split()
            assert signs == record["signs"]
            assert [int(x) for x in label.split(",")] == record["label"]
            assert bounded == str(record["bounded"]).lower()
            assert int(depth) == record["depth"]

    def test_guard(self, capsys):
        code, _, _ = invoke(capsys, "shi", "--n", "7")
        assert code == 3


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = invoke(capsys, "check", "--word", "1", "--bogus")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
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

    def test_import_leaves_fractions_out(self):
        # Only the Shi witness points need fractions (and decimal behind it).
        done = run_python("-S", "-c", "import sys, parkfunc, parkfunc.cli; "
                          "print('fractions' in sys.modules)")
        assert done.stdout == "False\n", done.stderr
