"""Seeded request pools in plain numbers, and the oracles that check outputs.

Nothing here imports blochiso: the pools are built from ``random.Random(seed)``
with plain complex arithmetic, and every expected value is computed the same
way, so the library is only ever exercised by the timed requests themselves.
A 2x2 matrix is a row-major tuple of four complex numbers.
"""

from __future__ import annotations

import json
import random
from math import cos, pi, sin, sqrt
from pathlib import Path

TOL = 1e-9

I2 = (1 + 0j, 0j, 0j, 1 + 0j)
SIGMAS = (
    (0j, 1 + 0j, 1 + 0j, 0j),
    (0j, -1j, 1j, 0j),
    (1 + 0j, 0j, 0j, -1 + 0j),
)

# Channel classes, operator counts, and how many of every block of 20
# requests draw each. Unitary sets carry 70%; ordered by cost, the median
# falls in the middle of the two-operator unitary share, not between two
# classes. Every aligned block of 20 holds this exact mix.
CHANNEL_MIX = (
    ("unitary", 1, 2),
    ("unitary", 2, 4),
    ("unitary", 3, 4),
    ("unitary", 4, 4),
    ("depolarizing", 4, 2),
    ("damping", 2, 2),
    ("not_tp", 2, 2),
)
# The tail latency is set by the slowest few distinct cases a round meets,
# so the channel pool is large enough to hold many of them.
CHANNEL_POOL = 1000
GEOMETRY_POOL = 200


# ----------------------------------------------------------------------
# Plain 2x2 arithmetic


def mul2(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def dag2(a):
    return (a[0].conjugate(), a[2].conjugate(), a[1].conjugate(), a[3].conjugate())


def trace2(a) -> complex:
    return a[0] + a[3]


def max_diff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def phase_aligned_diff(candidate, reference) -> float:
    """Entrywise distance after removing the best global phase."""
    overlap = sum(x.conjugate() * y for x, y in zip(reference, candidate))
    if abs(overlap) < 1e-15:
        return float("inf")
    phase = overlap / abs(overlap)
    return max(abs(y - phase * x) for x, y in zip(reference, candidate))


# ----------------------------------------------------------------------
# Draws


def gaussian(rng: random.Random) -> float:
    return rng.gauss(0.0, 1.0)


def unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        g = (gaussian(rng), gaussian(rng), gaussian(rng))
        n = sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
        if n > 1e-6:
            return (g[0] / n, g[1] / n, g[2] / n)


def su2(rng: random.Random):
    """Haar-random special unitary from a unit quaternion."""
    while True:
        w, x, y, z = (gaussian(rng) for _ in range(4))
        n = sqrt(w * w + x * x + y * y + z * z)
        if n > 1e-6:
            break
    w, x, y, z = w / n, x / n, y / n, z / n
    return (complex(w, -z), complex(-y, -x), complex(y, -x), complex(w, z))


def unitary_from_axis_angle(axis, angle: float):
    """cos(a/2) I - i sin(a/2) n . sigma."""
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    n1, n2, n3 = axis
    return (complex(c, -s * n3), complex(-s * n2, -s * n1), complex(s * n2, -s * n1), complex(c, s * n3))


def rotation_of(u) -> tuple[tuple[float, ...], ...]:
    """R_kj = Tr(U s_j U* s_k) / 2."""
    ud = dag2(u)
    rows = [[0.0] * 3 for _ in range(3)]
    for j in range(3):
        m = mul2(mul2(u, SIGMAS[j]), ud)
        for k in range(3):
            rows[k][j] = 0.5 * trace2(mul2(m, SIGMAS[k])).real
    return tuple(tuple(r) for r in rows)


def mixing_unitary(rng: random.Random, n: int) -> list[list[complex]]:
    """Random n x n unitary (rows of the result are indexed [row][col])."""
    cols: list[list[complex]] = []
    while len(cols) < n:
        v = [complex(gaussian(rng), gaussian(rng)) for _ in range(n)]
        for _ in range(2):
            for u in cols:
                ov = sum(u[i].conjugate() * v[i] for i in range(n))
                v = [v[i] - ov * u[i] for i in range(n)]
        nrm = sqrt(sum(abs(e) ** 2 for e in v))
        if nrm > 1e-3:
            cols.append([e / nrm for e in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def redundant_unitary(rng: random.Random, count: int):
    """Kraus set A_a = (sum_c W[c][a] sqrt(w_c)) U of the conjugation by U."""
    u = su2(rng)
    raw = [0.1 + rng.random() for _ in range(count)]
    weights = [x / sum(raw) for x in raw]
    w = mixing_unitary(rng, count)
    ops = []
    for a in range(count):
        z = sum(w[c][a] * sqrt(weights[c]) for c in range(count))
        ops.append(tuple(z * e for e in u))
    return ops, u


def channel_case(rng: random.Random, cls: str, count: int) -> dict:
    """One Kraus set of the given class with the verdict it must receive."""
    if cls == "unitary":
        ops, u = redundant_unitary(rng, count)
        return {"class": cls, "ops": ops, "kind": "UnitaryConjugation", "rank": 1, "unitary": u}
    if cls == "depolarizing":
        q = 1.0 - 0.95 * rng.random()
        ops = [tuple(sqrt(1.0 - 0.75 * q) * e for e in I2)]
        ops += [tuple(sqrt(0.25 * q) * e for e in s) for s in SIGMAS]
        return {"class": cls, "ops": ops, "kind": "CptpNotInvertible", "rank": 4}
    if cls == "damping":
        g = 0.05 + 0.9 * rng.random()
        v = su2(rng)
        vd = dag2(v)
        k0 = (1 + 0j, 0j, 0j, complex(sqrt(1.0 - g)))
        k1 = (0j, complex(sqrt(g)), 0j, 0j)
        ops = [mul2(mul2(v, k), vd) for k in (k0, k1)]
        return {"class": cls, "ops": ops, "kind": "CptpNotInvertible", "rank": 2}
    if cls == "not_tp":
        ops, _ = redundant_unitary(rng, count)
        s = (0.5 + 0.4 * rng.random()) if rng.random() < 0.5 else (1.1 + 0.4 * rng.random())
        return {"class": cls, "ops": [tuple(s * e for e in op) for op in ops], "kind": "NotCptp", "rank": 0}
    raise ValueError(cls)


def channel_pool(seed: int) -> list[dict]:
    rng = random.Random(seed)
    block = [(cls, count) for cls, count, share in CHANNEL_MIX for _ in range(share)]
    draws = []
    for _ in range(CHANNEL_POOL // len(block)):
        rng.shuffle(block)
        draws.extend(block)
    return [channel_case(rng, cls, count) for cls, count in draws]


def geometry_case(rng: random.Random) -> dict:
    d = unit_vector(rng)
    rad = rng.random() ** (1.0 / 3.0)
    u = su2(rng)
    word = [(unit_vector(rng), 2.0 * pi * rng.random()) for _ in range(3)]
    lift_axis = unit_vector(rng)
    lift_angle = 0.05 + (pi - 0.1) * rng.random()
    lift_u = unitary_from_axis_angle(lift_axis, lift_angle)
    return {
        "class": "geometry",
        "bloch": tuple(rad * c for c in d),
        "state_aa": (unit_vector(rng), 2.0 * pi * rng.random()),
        "u": u,
        "u_rotation": rotation_of(u),
        "word": word,
        "lift_rotation": rotation_of(lift_u),
        "lift_unitary": lift_u,
    }


def geometry_pool(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [geometry_case(rng) for _ in range(GEOMETRY_POOL)]


# ----------------------------------------------------------------------
# Oracles for the in-process workloads (each returns None or a failure text)


def check_channel(case: dict, result, unitary, inverse_report) -> str | None:
    if result.kind.value != case["kind"] or result.choi_rank != case["rank"]:
        return f"{case['class']}: got {result.kind.value} rank {result.choi_rank}"
    if case["kind"] != "UnitaryConjugation":
        return None
    dev = phase_aligned_diff(unitary, case["unitary"])
    if not dev <= TOL:
        return f"extracted unitary is {dev:.3e} from the construction"
    if not inverse_report.valid:
        return "inverse pair is not valid"
    return None


def check_geometry(case: dict, state, plus, minus, group, lift) -> str | None:
    if not (state.commutes and state.max_deviation <= TOL):
        return f"state diagram deviation {state.max_deviation:.3e}"
    if plus.matrix != minus.matrix:
        return "phi_inverse(U) and phi_inverse(-U) differ"
    if not max_diff(sum(plus.matrix, ()), sum(case["u_rotation"], ())) <= TOL:
        return "phi_inverse(U) is not the trace-formula rotation"
    if not (group.commutes and group.max_deviation <= TOL):
        return f"group diagram deviation {group.max_deviation:.3e}"
    if not max_diff(lift.matrix.entries, case["lift_unitary"]) <= TOL:
        return "phi lift differs from the closed-form unitary"
    return None


# ----------------------------------------------------------------------
# CLI requests: documents on disk and the checks on their stdout


# The test suite's golden cases, copied so that the workload stays fixed when
# the tests change; their expected bytes are read from tests/golden/expected.
GOLDEN_CASES = (
    ("convert_bloch_to_density.json", ["convert", "--to", "density", "bloch_north.json"]),
    ("convert_unitary_to_rotation.json", ["convert", "--to", "rotation", "unitary_quarter_z.json"]),
    ("convert_axis_angle_to_unitary.json", ["convert", "--to", "unitary", "axis_angle_half_x.json"]),
    ("classify_identity.json", ["classify", "kraus_identity.json"]),
    ("classify_depolarizing_half.json", ["classify", "kraus_depolarizing_half.json"]),
    ("classify_scaled_identity.json", ["classify", "kraus_scaled_identity.json"]),
)


def _pairs(m):
    return [[[m[0].real, m[0].imag], [m[1].real, m[1].imag]], [[m[2].real, m[2].imag], [m[3].real, m[3].imag]]]


def _doc(kind: str, payload: dict) -> str:
    return json.dumps({"schema_version": "1", "kind": kind, "payload": payload})


def choi_of(ops) -> list[complex]:
    ents = [0j] * 16
    for w in ops:
        for r in range(4):
            for c in range(4):
                ents[r * 4 + c] += w[r] * w[c].conjugate()
    return ents


def bloch_action(ops):
    """M_kj = Tr(s_k Phi(s_j)) / 2 and t_k = Tr(s_k Phi(I)) / 2."""

    def phi(m):
        acc = (0j,) * 4
        for op in ops:
            acc = tuple(x + y for x, y in zip(acc, mul2(mul2(op, m), dag2(op))))
        return acc

    def coords(m):
        return [0.5 * trace2(mul2(s, m)).real for s in SIGMAS]

    cols = [coords(phi(s)) for s in SIGMAS]
    return [[cols[j][i] for j in range(3)] for i in range(3)], coords(phi(I2))


def cli_pool(seed: int, root: Path, workdir: Path) -> list[dict]:
    """The golden cases plus seeded classify, convert and bloch-action requests."""
    golden = root / "tests" / "golden"
    pool = []
    for expected, argv in GOLDEN_CASES:
        args = [str(golden / "inputs" / a) if a.endswith(".json") else a for a in argv]
        pool.append(
            {"class": expected[:-5], "argv": args, "stdout": (golden / "expected" / expected).read_text("utf-8")}
        )
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    for cls, count in (("unitary", 3), ("depolarizing", 4), ("damping", 2), ("not_tp", 2)):
        case = channel_case(rng, cls, count)
        path = write(f"kraus_{cls}.json", _doc("kraus", {"operators": [_pairs(op) for op in case["ops"]]}))
        pool.append({"class": f"classify_{cls}", "argv": ["classify", path], "case": case})
    u = su2(rng)
    path = write("unitary.json", _doc("unitary", {"matrix": _pairs(u)}))
    pool.append({"class": "convert_rotation", "argv": ["convert", "--to", "rotation", path], "rotation": rotation_of(u)})
    case = channel_case(rng, "damping", 2)
    path = write("kraus_convert.json", _doc("kraus", {"operators": [_pairs(op) for op in case["ops"]]}))
    pool.append({"class": "convert_choi", "argv": ["convert", "--to", "choi", path], "choi": choi_of(case["ops"])})
    case = channel_case(rng, "depolarizing", 4)
    path = write("kraus_action.json", _doc("kraus", {"operators": [_pairs(op) for op in case["ops"]]}))
    pool.append({"class": "bloch_action", "argv": ["bloch-action", path], "action": bloch_action(case["ops"])})
    return pool


def _cmatrix(rows) -> list[complex]:
    return [complex(re, im) for row in rows for re, im in row]


def check_cli(req: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"{req['class']}: exit code {code}"
    if "stdout" in req:
        return None if stdout == req["stdout"] else f"{req['class']}: stdout differs from the golden bytes"
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"{req['class']}: stdout is not JSON"
    if "case" in req:
        case = req["case"]
        if out.get("kind") != case["kind"] or out.get("choi_rank", 0) != case["rank"]:
            return f"{req['class']}: got {out.get('kind')} rank {out.get('choi_rank')}"
        if case["kind"] == "UnitaryConjugation" and not phase_aligned_diff(_cmatrix(out["unitary"]), case["unitary"]) <= TOL:
            return f"{req['class']}: wrong unitary"
        return None
    if "rotation" in req:
        got = sum(out["payload"]["matrix"], [])
        return None if max_diff(got, sum(req["rotation"], ())) <= TOL else "convert_rotation: wrong rotation"
    if "choi" in req:
        got = _cmatrix(out["payload"]["matrix"])
        return None if max_diff(got, req["choi"]) <= TOL else "convert_choi: wrong Choi matrix"
    m, t = req["action"]
    ok = max_diff(sum(out["M"], []), sum(m, [])) <= TOL and max_diff(out["t"], t) <= TOL
    return None if ok and out["isometry"] is False else "bloch_action: wrong affine action"
