"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
plain `pytest` shows them for any failing criterion.
"""

import time

from parkfunc import (
    all_words,
    count_parking_functions,
    count_prime_parking_functions,
    decompose,
    enumerate_regions,
    is_parking_function,
    is_prime_parking_function,
    prime_street,
    rotated_street,
    sample_primes,
    simulate,
    standard_street,
    strip_first_one,
    verify_bijection,
    verify_proposition,
)
from parkfunc.cli import run
from test_cli import GOLDEN
from test_shi import BOUNDED3, LABELS3
from conftest import CARS_PRIME15, CARS_STANDARD15, PRIME15, SHIFT15, WORD15

PF_EXPECTED = [1, 3, 16, 125, 1296, 16807, 262144, 4782969, 100000000, 2357947691]
PPF_EXPECTED = [1, 1, 4, 27, 256, 3125, 46656, 823543, 16777216, 387420489]


def report(number, title, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {title}")
    assert ok, f"criterion {number} failed: {title}"


def test_criterion_1_counting():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        r = count_parking_functions(n)
        ok &= r.agrees and r.matching == PF_EXPECTED[n - 1]
        r = count_prime_parking_functions(n)
        ok &= r.agrees and r.matching == PPF_EXPECTED[n - 1]
    ok &= time.perf_counter() - start < 120
    report(1, "exhaustive counts match the closed forms for n=1..10", ok)


def test_criterion_2_bijection():
    start = time.perf_counter()
    ok = all(verify_bijection(n) for n in range(2, 9))
    ok &= time.perf_counter() - start < 60
    report(2, "shift decomposition is a bijection for n=2..8", ok)


def test_criterion_3_worked_example(capsys):
    k, b = decompose(WORD15)
    ok = (k, b) == (SHIFT15, PRIME15)
    ok &= simulate(WORD15, standard_street(15)).assignment == CARS_STANDARD15
    ok &= simulate(PRIME15, prime_street(15)).assignment == CARS_PRIME15
    ok &= simulate(WORD15, rotated_street(15, 10)).assignment == CARS_PRIME15
    word = ",".join(map(str, WORD15))
    prime = ",".join(map(str, PRIME15))
    for golden, argv in [
        ("simulate_standard.txt", ["simulate", "--word", word]),
        ("simulate_prime.txt", ["simulate", "--word", prime, "--street", "prime"]),
        ("simulate_rotated.txt",
         ["simulate", "--word", word, "--street", "rotated", "--k", "10"]),
    ]:
        ok &= run(argv) == 0
        ok &= capsys.readouterr().out == (GOLDEN / golden).read_text()
    report(3, "fifteen-car example: decomposition and all three streets", ok)


def test_criterion_4_rotated_streets():
    start = time.perf_counter()
    ok = all(verify_proposition(n) for n in range(2, 10))
    ok &= time.perf_counter() - start < 60
    report(4, "unique parking rotation equals the shift for n=2..9", ok)


def test_criterion_5_shi_regions():
    ok = True
    for n in range(2, 7):
        start = time.perf_counter()
        regions = enumerate_regions(n)
        labels = [r.label for r in regions]
        bounded = [r.label for r in regions if r.bounded]
        ok &= len(regions) == (n + 1) ** (n - 1)
        ok &= len(bounded) == (n - 1) ** (n - 1)
        ok &= len(set(labels)) == len(labels)
        ok &= set(labels) == {
            w for w in all_words(n, n) if is_parking_function(w)
        }
        ok &= set(bounded) == {
            w for w in all_words(n - 1, n) if is_prime_parking_function(w)
        }
        if n == 3:
            ok &= set(labels) == LABELS3 and len(labels) == 16
            ok &= set(bounded) == BOUNDED3
        if n == 5:
            ok &= time.perf_counter() - start < 300
    report(5, "region labels and bounded labels for n=2..6", ok)


def test_criterion_6_equivalences():
    ok = True
    for n in range(1, 6):
        street = standard_street(n)
        ok &= all(
            simulate(w, street).success == is_parking_function(w)
            for w in all_words(n, n)
        )
    for n in range(2, 6):
        street = prime_street(n)
        ok &= all(
            simulate(w, street).success == is_prime_parking_function(w)
            for w in all_words(n - 1, n)
        )
    for n in range(2, 7):
        for w in all_words(n - 1, n):
            if 1 in w:
                ok &= is_prime_parking_function(w) == is_parking_function(
                    strip_first_one(w)
                )
            else:
                ok &= not is_prime_parking_function(w)
    report(6, "street simulations match the sorted criteria; strip bijection", ok)


def test_criterion_7_sampler():
    draws = 27000
    words = sample_primes(4, 20260810, draws)
    ok = words == sample_primes(4, 20260810, draws)
    prime_words = sorted(w for w in all_words(3, 4) if is_prime_parking_function(w))
    ok &= len(prime_words) == 27
    sigma = (draws * (1 / 27) * (26 / 27)) ** 0.5
    target = draws / 27
    counts = {w: 0 for w in prime_words}
    for w in words:
        counts[w] += 1
    ok &= all(abs(c - target) <= 5 * sigma for c in counts.values())
    report(7, "uniform sampler: every prime word within 5 sigma at n=4", ok)
