#!/usr/bin/env python3
"""Exhaustive counts against the closed forms.

Parking functions of length n number (n+1)^(n-1); the prime ones number
(n-1)^(n-1).  Both are verified here over every word of the space, one
orbit at a time: the predicates read only the sorted word, so each sorted
word is checked once and counts for all the words that sort to it.
"""

from parkfunc import count_parking_functions, count_prime_parking_functions

print(f"{'n':>2} {'words':>9} {'parking':>9} {'(n+1)^(n-1)':>11} "
      f"{'prime':>8} {'(n-1)^(n-1)':>11}")
for n in range(1, 10):
    pf = count_parking_functions(n)
    ppf = count_prime_parking_functions(n)
    assert pf.agrees and ppf.agrees
    print(f"{n:>2} {pf.total_words:>9} {pf.matching:>9} {pf.formula_value:>11} "
          f"{ppf.matching:>8} {ppf.formula_value:>11}")

print("\nboth exhaustive tallies agree with their formulas")
