"""Sanity checks on the seeded sample generators."""

import random
from math import pi

from blochiso.matrix import ComplexMatrix, adjoint, max_abs_diff
from blochiso.sampling import (
    axis_angle,
    bloch_in_ball,
    mixing_unitary,
    probability_vector,
    redundant_unitary_kraus,
    su2_haar,
    unit_vector,
)
from blochiso.su2 import det2
from helpers import mul


def test_streams_are_reproducible():
    a = [bloch_in_ball(random.Random(42)).as_tuple() for _ in range(3)]
    b = [bloch_in_ball(random.Random(42)).as_tuple() for _ in range(3)]
    assert a == b


def test_unit_vectors_are_unit():
    rng = random.Random(1)
    for _ in range(100):
        v = unit_vector(rng)
        assert abs(sum(c * c for c in v) - 1.0) <= 1e-12


def test_ball_samples_stay_inside():
    rng = random.Random(2)
    for _ in range(200):
        assert bloch_in_ball(rng).norm() <= 1.0 + 1e-12


def test_axis_angle_in_range():
    rng = random.Random(3)
    for _ in range(100):
        aa = axis_angle(rng)
        assert 0.0 <= aa.angle < 2 * pi


def test_haar_unitaries_are_special():
    rng = random.Random(4)
    for _ in range(100):
        u = su2_haar(rng)
        assert abs(det2(u.matrix) - 1.0) <= 1e-12


def test_probability_vector_sums_to_one():
    rng = random.Random(5)
    for count in (1, 2, 4):
        w = probability_vector(rng, count)
        assert abs(sum(w) - 1.0) <= 1e-12
        assert all(x > 0 for x in w)


def test_mixing_unitary_is_unitary():
    rng = random.Random(6)
    for n in (1, 2, 3, 4):
        w = mixing_unitary(rng, n)
        assert max_abs_diff(mul(adjoint(w), w), ComplexMatrix.identity(n)) <= 1e-11


def test_redundant_sets_are_trace_preserving():
    rng = random.Random(7)
    for _ in range(50):
        k, _u, weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(4))
        assert k.tp_deviation() <= 1e-12
        assert abs(sum(weights) - 1.0) <= 1e-12
