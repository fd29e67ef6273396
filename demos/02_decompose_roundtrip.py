#!/usr/bin/env python3
"""Anatomy of the shift decomposition.

Any word a over [n-1] of length n can be written uniquely as a cyclic shift
k of a prime parking function b: a_i = b_i + k - 1 (mod n-1).  The shift is
found by scoring the sorted word and locating the unique minimal score.
"""

from parkfunc import decompose, recompose, scores, sorted_rearrangement

a = (3, 13, 6, 3, 7, 3, 2, 1, 10, 11, 6, 7, 14, 10, 11)
n = len(a)
q = sorted_rearrangement(a)
sv = scores(q)

print(f"word    a = {a}")
print(f"sorted  q = {q}")
print(f"scores    = {sv.values}")
print(f"minimum at position {sv.argmin}, so k = q[{sv.argmin}] = {q[sv.argmin - 1]}")

k, b = decompose(a)
print(f"\nprime part b = {b}")
print(f"recompose(b, {k}) == a: {recompose(b, k) == a}")

print("\ncongruence check, entry by entry (all differences = k-1 mod n-1):")
print([(ai - bi) % (n - 1) for ai, bi in zip(a, b)])

# Exhaustive uniqueness on a small space: for every word over [3]^4,
# exactly one of the three shifts produces a prime parking function.
from itertools import product

from parkfunc import is_prime_parking_function

m = 3
bad = 0
for word in product(range(1, m + 1), repeat=m + 1):
    prime_shifts = [
        kk for kk in range(1, m + 1)
        if is_prime_parking_function(tuple((x - kk) % m + 1 for x in word))
    ]
    assert prime_shifts == [decompose(word).k]
print(f"\nevery word in [3]^4 has exactly one prime shift: verified "
      f"({m ** (m + 1)} words)")
