"""Seeded random generators for states, rotations, unitaries, and channels.

Every draw reduces to ``random.Random.random()`` so a fixed seed reproduces
the identical stream on any platform; this is what makes the CLI's sampled
verification reports byte-stable. Sums are explicit left-to-right loops:
built-in ``sum`` compensates float rounding from Python 3.12 on.
"""

from __future__ import annotations

import random
from math import cos, log, pi, sqrt

from .bloch import BlochVector
from .channels import KrausSet
from .matrix import ComplexMatrix, scale
from .so3 import AxisAngle
from .su2 import Unitary2, _from_quaternion


def gaussian(rng: random.Random) -> float:
    """One standard normal draw via Box-Muller (half the pair is discarded)."""
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u2)


def unit_vector(rng: random.Random) -> tuple[float, float, float]:
    """Uniform direction on the sphere."""
    while True:
        g = (gaussian(rng), gaussian(rng), gaussian(rng))
        nrm = sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
        if nrm > 1e-12:
            return (g[0] / nrm, g[1] / nrm, g[2] / nrm)


def bloch_in_ball(rng: random.Random) -> BlochVector:
    """Uniform point of the closed unit ball."""
    d = unit_vector(rng)
    r = rng.random() ** (1.0 / 3.0)
    return BlochVector(r * d[0], r * d[1], r * d[2])


def axis_angle(rng: random.Random) -> AxisAngle:
    """Uniform axis and uniform angle in [0, 2 pi)."""
    return AxisAngle(unit_vector(rng), 2.0 * pi * rng.random())


def su2_haar(rng: random.Random) -> Unitary2:
    """Haar-random special unitary via a normalized quaternion."""
    while True:
        w, x, y, z = (gaussian(rng) for _ in range(4))
        nrm = sqrt(w * w + x * x + y * y + z * z)
        if nrm > 1e-12:
            break
    return _from_quaternion(w / nrm, x / nrm, y / nrm, z / nrm)


def probability_vector(rng: random.Random, count: int) -> tuple[float, ...]:
    """Strictly positive weights summing to one: draws of 0.1 + U[0, 1), normalized."""
    raw = [0.1 + rng.random() for _ in range(count)]
    total = 0.0
    for w in raw:
        total += w
    return tuple(w / total for w in raw)


def mixing_unitary(rng: random.Random, n: int) -> ComplexMatrix:
    """Random n x n unitary from Gram-Schmidt on a complex Gaussian matrix."""
    cols: list[list[complex]] = []
    for _ in range(n):
        while True:
            v = [complex(gaussian(rng), gaussian(rng)) for _ in range(n)]
            for _pass in range(2):
                for u in cols:
                    overlap = 0j
                    for i in range(n):
                        overlap += u[i].conjugate() * v[i]
                    for i in range(n):
                        v[i] -= overlap * u[i]
            nrm = 0.0
            for e in v:
                nrm += e.real * e.real + e.imag * e.imag
            nrm = sqrt(nrm)
            if nrm > 1e-6:
                cols.append([e / nrm for e in v])
                break
    ents = tuple(cols[j][i] for i in range(n) for j in range(n))
    return ComplexMatrix(n, n, ents)


def redundant_unitary_kraus(
    rng: random.Random, count: int
) -> tuple[KrausSet, Unitary2, tuple[float, ...], ComplexMatrix]:
    """Redundant Kraus representation of a random unitary conjugation.

    Builds the scaled copies sqrt(gamma_c) U and remixes them through a
    random unitary matrix of coefficients, A_a = sum_c W[c][a] sqrt(gamma_c) U.
    Returns the set together with the construction pieces (unitary, weights,
    mixing matrix) for use as oracles.
    """
    u = su2_haar(rng)
    weights = probability_vector(rng, count)
    w = mixing_unitary(rng, count)
    ops = []
    for a in range(count):
        z = 0j
        for c in range(count):
            z += w.at(c, a) * sqrt(weights[c])
        ops.append(scale(u.matrix, z))
    return KrausSet(tuple(ops)), u, weights, w
