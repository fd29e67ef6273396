"""The Fourier-Motzkin oracle that the Shi engine is cross-checked against."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fm_oracle import (
    Constraint,
    at_most,
    equal_to,
    find_point,
    less_than,
    satisfiable,
)


def holds(con, point):
    value = sum(c * p for c, p in zip(con.coeffs, point))
    return value < con.bound if con.strict else value <= con.bound


class TestBasics:
    def test_open_strip(self):
        # 0 < x0 - x1 < 1
        system = [less_than((-1, 1), 0), less_than((1, -1), 1)]
        assert satisfiable(system, 2)
        point = find_point(system, 2)
        assert all(holds(c, point) for c in system)

    def test_contradictory_strips(self):
        # x0 - x1 < 0 together with x0 - x1 > 1
        system = [less_than((1, -1), 0), less_than((-1, 1), -1)]
        assert not satisfiable(system, 2)
        assert find_point(system, 2) is None

    def test_strictness_matters_on_a_point(self):
        closed = equal_to((1,), 5) + [at_most((-1,), -5)]
        assert satisfiable(closed, 1)
        assert find_point(closed, 1) == (Fraction(5),)
        open_version = [less_than((1,), 5), at_most((-1,), -5)]
        assert not satisfiable(open_version, 1)
        # the strict bound must win over an equal non-strict one during dedup
        mixed = [less_than((1,), 5), at_most((1,), 5), at_most((-1,), -5)]
        assert not satisfiable(mixed, 1)

    def test_unconstrained(self):
        assert find_point([], 3) == (0, 0, 0)

    def test_one_sided(self):
        point = find_point([at_most((-1, 0), -7)], 2)  # x0 >= 7
        assert point[0] >= 7

    def test_equality_chain(self):
        # x0 = x1 = x2 and x0 + x1 + x2 = 3 forces (1, 1, 1).
        system = (
            equal_to((1, -1, 0), 0)
            + equal_to((0, 1, -1), 0)
            + equal_to((1, 1, 1), 3)
        )
        assert find_point(system, 3) == (1, 1, 1)

    def test_rational_coefficients(self):
        system = [
            at_most((Fraction(1, 3), Fraction(-1, 2)), Fraction(1, 6)),
            at_most((Fraction(-2, 3), 1), Fraction(-1, 3)),
        ]
        point = find_point(system, 2)
        assert all(holds(c, point) for c in system)


constraint_strategy = st.builds(
    Constraint,
    coeffs=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=3, max_size=3,
    ).map(tuple),
    bound=st.fractions(min_value=-4, max_value=4, max_denominator=4),
    strict=st.booleans(),
)


@given(
    system=st.lists(constraint_strategy, max_size=6),
    scales=st.lists(
        st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7),
        min_size=6, max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_scale_invariance(system, scales):
    # Multiplying any constraint by a positive rational changes nothing.
    scaled = [
        Constraint(tuple(s * c for c in con.coeffs), s * con.bound, con.strict)
        for con, s in zip(system, scales)
    ]
    assert satisfiable(system, 3) == satisfiable(scaled, 3)


@given(system=st.lists(constraint_strategy, max_size=6))
@settings(max_examples=300, deadline=None)
def test_witness_actually_satisfies(system):
    point = find_point(system, 3)
    if point is None:
        assert not satisfiable(system, 3)
    else:
        assert all(holds(c, point) for c in system)
