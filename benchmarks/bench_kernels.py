"""Benchmark the compiled kernel backend against the pure-Python fallback.

Raw kernels (matmul, Jacobi eigensolve) are timed in-process for every
available backend; the end-to-end channel workload re-executes this script
in a subprocess with BLOCHISO_KERNEL forced, so each measurement runs the
library exactly as a user would see it.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

from blochiso._kernels import available_backends, get_backend


def _random_complex_matrix(rng: random.Random, n: int) -> list[complex]:
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)]


def _random_hermitian(rng: random.Random, n: int) -> list[complex]:
    h = [0j] * (n * n)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                h[i * n + i] = complex(rng.gauss(0, 1), 0.0)
            else:
                z = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                h[i * n + j] = z
                h[j * n + i] = z.conjugate()
    return h


def bench_matmul(backend, n: int, repeat: int) -> float:
    rng = random.Random(11)
    a = _random_complex_matrix(rng, n)
    b = _random_complex_matrix(rng, n)
    start = time.perf_counter()
    for _ in range(repeat):
        backend.matmul(n, n, a, n, b)
    return time.perf_counter() - start


def bench_jacobi(backend, n: int, repeat: int) -> float:
    rng = random.Random(13)
    mats = [_random_hermitian(rng, n) for _ in range(32)]
    start = time.perf_counter()
    for i in range(repeat):
        backend.jacobi_hermitian(n, mats[i % 32])
    return time.perf_counter() - start


def channel_workload(repeat: int) -> float:
    """Classify redundant unitary channels end to end with the active backend."""
    from blochiso import channels, sampling

    rng = random.Random(17)
    sets = [sampling.redundant_unitary_kraus(rng, 3)[0] for _ in range(16)]
    start = time.perf_counter()
    for i in range(repeat):
        channels.classify(sets[i % 16])
    return time.perf_counter() - start


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _speedup(times: list[float]) -> str:
    """Python over compiled time; with one backend there is nothing to compare."""
    if len(times) < 2 or times[0] <= 0:
        return f"{'n/a':>9} "
    return f"{times[-1] / times[0]:>9.2f}x"


def _run_child(backend_name: str, repeat: int) -> float:
    env = dict(os.environ, BLOCHISO_KERNEL=backend_name)
    out = subprocess.run(
        [sys.executable, __file__, "--child-workload", str(repeat)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(json.loads(out.stdout)["elapsed"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=_positive_int, default=20000, help="kernel iterations")
    parser.add_argument("--child-workload", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child_workload:
        elapsed = channel_workload(args.child_workload)
        print(json.dumps({"elapsed": elapsed}))
        return 0

    backends = available_backends()
    repeat = args.repeat
    rows: list[tuple[str, dict[str, float]]] = []
    for name in backends:
        backend = get_backend(name)
        rows.append(
            (
                name,
                {
                    "matmul 2x2": bench_matmul(backend, 2, repeat),
                    "matmul 4x4": bench_matmul(backend, 4, repeat),
                    "jacobi 4x4": bench_jacobi(backend, 4, max(1, repeat // 10)),
                },
            )
        )

    classify_repeat = max(1, repeat // 40)
    classify_times = {name: _run_child(name, classify_repeat) for name in backends}

    print(f"kernel iterations: {repeat}; classify iterations: {classify_repeat}")
    print(f"{'benchmark':<16}" + "".join(f"{name:>12}" for name in backends) + "   speedup")
    kernels = list(rows[0][1].keys())
    for key in kernels:
        times = [timings[key] for _, timings in rows]
        print(f"{key:<16}" + "".join(f"{t:>11.4f}s" for t in times) + _speedup(times))
    times = [classify_times[name] for name in backends]
    print(f"{'classify e2e':<16}" + "".join(f"{t:>11.4f}s" for t in times) + _speedup(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
