"""Workload process: one closed-loop caller, no threads.

Usage:
  python blochbench/worker.py setup MODULE
  python blochbench/worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR

``setup`` imports MODULE, writes a ready line, then a stamp line with the
import time it measured itself and how slowly the host ran ``reference``,
and exits; the parent times it from spawn to the ready line. ``run`` drives
one workload and prints its raw result as the last line of stdout. Each
request waits for the previous one; only the request is timed, never its
check or the reference runs between requests.
"""

import sys

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    from time import perf_counter

    _start = perf_counter()
    __import__(sys.argv[2])
    IMPORT_S = perf_counter() - _start
    sys.stdout.write("ready\n")
    sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import blochiso  # noqa: E402
import inputs  # noqa: E402
from blochiso import bloch, channels, cli, isomorphism, matrix, so3, su2  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TAIL_SAMPLES = 10
# A timed run is this many back-to-back rounds of equal length.
ROUNDS = 10
# CPU seconds of one ``reference()`` on a 2-vCPU Intel Xeon virtual
# machine in its fast state, with Python 3.11.7, and how many requests lie
# between two runs of it.
REFERENCE_S = 3.4e-3
REFERENCE_EVERY = 40


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "backend": blochiso.kernel_backend(),
        "blochiso_path": str(Path(blochiso.__file__).resolve().parent),
    }


# ----------------------------------------------------------------------
# Requests: build values from plain numbers, call the public API


def channel_request(case):
    k = channels.KrausSet(tuple(matrix.ComplexMatrix(2, 2, op) for op in case["ops"]))
    result = channels.classify(k)
    report = None
    if result.kind is channels.ChannelKind.UNITARY_CONJUGATION:
        report = channels.verify_inverse_pair(k, channels.invert(k))
    return result, report


def channel_check(case, out):
    result, report = out
    unitary = result.extracted_unitary.entries if result.extracted_unitary is not None else None
    return inputs.check_channel(case, result, unitary, report)


def geometry_request(case):
    state = isomorphism.verify_state_diagram(bloch.BlochVector(*case["bloch"]), so3.AxisAngle(*case["state_aa"]))
    u = su2.Unitary2(matrix.ComplexMatrix(2, 2, case["u"]))
    plus = isomorphism.phi_inverse(u)
    minus = isomorphism.phi_inverse(su2.negate(u))
    group = isomorphism.verify_group_diagram([so3.AxisAngle(axis, angle) for axis, angle in case["word"]])
    lift = isomorphism.phi(so3.Rotation3(case["lift_rotation"]))
    return state, plus, minus, group, lift


def geometry_check(case, out):
    return inputs.check_geometry(case, *out)


def cli_request(req):
    """One ``blochiso`` command line, run through ``cli.main`` with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(req["argv"])
    return code, out.getvalue()


def cli_check(req, out):
    return inputs.check_cli(req, *out)


REQUESTS = {
    "channels": (channel_request, channel_check),
    "geometry": (geometry_request, geometry_check),
    "cli": (cli_request, cli_check),
}


def request_pool(workload: str, seed: int, outdir: Path) -> list[dict]:
    if workload == "channels":
        return inputs.channel_pool(seed)
    if workload == "geometry":
        return inputs.geometry_pool(seed)
    return inputs.cli_pool(seed, ROOT, outdir / f"docs-{seed}")


def timed(request, check, tracer):
    def run_one(case):
        wall, cpu = perf_counter(), process_time()
        out = request(case)
        elapsed = (process_time() - cpu, perf_counter() - wall)
        if tracer is not None:
            tracer.end_request(case["class"])
        return elapsed, check(case, out)

    return run_one


# ----------------------------------------------------------------------
# The loop


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference() -> float:
    """CPU seconds of a fixed pure-Python workload that never touches blochiso.

    The shared host switches between a fast and a slow state, at times many
    times a second; the share of time it spends slow changes over minutes
    and makes requests up to twice as slow on average. That share slows
    this loop (integer arithmetic, then small objects, tuples and a dict,
    which the library's two kinds of work resemble) and the requests alike,
    so each round's median latency and throughput are scaled by the
    reference's mean time in that round over REFERENCE_S; a change to
    blochiso moves the requests and not the reference.
    """
    start = process_time()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    items = [_Pair(complex(i, 1), (i, 0.5)) for i in range(40)]
    for _ in range(36):
        items = [_Pair(x.a * y.a + 1j, tuple(v * 0.5 for v in x.b)) for x, y in zip(items, reversed(items))]
        table = {i: p.a for i, p in enumerate(items)}
        items = [_Pair(table[i] / (abs(table[i]) + 1.0), p.b) for i, p in enumerate(items)]
    return process_time() - start


def closed_loop(pool, run_one, seconds: float, whole_cycles: bool = False) -> dict:
    """Issue requests back to back until ``seconds`` have passed; keep every latency.

    The reference loop runs before every REFERENCE_EVERY-th request; its wall
    time is left out of the round's wall time. Latencies go to flat arrays,
    so that the benchmark's own memory barely depends on how many requests
    a round completes.
    """
    cpu, wall, errors, references = array("d"), array("d"), [], []
    start = perf_counter()
    issued = 0
    reference_wall = 0.0
    while True:
        if issued % REFERENCE_EVERY == 0:
            before = perf_counter()
            references.append(reference())
            reference_wall += perf_counter() - before
        case = pool[issued % len(pool)]
        issued += 1
        try:
            (cpu_s, wall_s), error = run_one(case)
        except Exception as exc:  # a request that raises is a failed request
            error = f"{case['class']}: {type(exc).__name__}: {exc}"
        if error is None:
            cpu.append(cpu_s)
            wall.append(wall_s)
        else:
            errors.append(error)
        elapsed = perf_counter() - start
        if elapsed >= seconds and (not whole_cycles or issued % len(pool) == 0):
            return {
                "cpu": cpu,
                "wall": wall,
                "errors": errors,
                "attempted": issued,
                "elapsed": elapsed - reference_wall,
                "references": references,
            }


def tail(latencies) -> float:
    """The highest percentile with TAIL_SAMPLES samples beyond it."""
    return sorted(latencies)[len(latencies) - 1 - TAIL_SAMPLES]


def summarize(rounds: list[dict]) -> dict:
    """Latency and throughput of the back-to-back rounds of one run.

    Each round is measured whole: every request's CPU time counts towards
    its median, and its throughput is completed requests over its wall
    time. Both are scaled to the reference speed (see ``reference``), and
    the run reports the median over rounds. Latency is CPU time because the
    host takes the CPU away for 10 ms and more many times a minute, which
    set the wall-time tail.

    The tail is each round's highest percentile with TAIL_SAMPLES requests
    beyond it, unscaled, and the run reports the median over rounds: it is
    the latency of the slowest requests run while the host was in its slow
    state, which does not depend on how much of the time it was slow. Over
    the whole run instead, it would be set by the ten rarest events of tens
    of thousands of requests. ``raw`` holds the figures unscaled, with
    wall-time median and tail, and ``slowdown`` the median over rounds of
    the scale.
    """
    errors = [e for r in rounds for e in r["errors"]]
    out = {"attempted": sum(r["attempted"] for r in rounds), "samples": sum(len(r["cpu"]) for r in rounds)}
    out.update(rounds=len(rounds), failed=len(errors), errors=errors[:5])
    if not all(len(r["cpu"]) > TAIL_SAMPLES for r in rounds):
        return out
    slowdowns = [statistics.fmean(r["references"]) / REFERENCE_S for r in rounds]
    rates = [len(r["cpu"]) / r["elapsed"] for r in rounds]
    p50s = [statistics.median(r["cpu"]) for r in rounds]
    smallest = min(len(r["cpu"]) for r in rounds)
    out.update(
        p50_ms=statistics.median(p50 / slow for p50, slow in zip(p50s, slowdowns)) * 1e3,
        tail_ms=statistics.median(tail(r["cpu"]) for r in rounds) * 1e3,
        tail_pct=100.0 * (smallest - TAIL_SAMPLES) / smallest,
        round_samples=smallest,
        throughput_ops_s=statistics.median(rate * slow for rate, slow in zip(rates, slowdowns)),
        slowdown=statistics.median(slowdowns),
        raw={
            "p50_ms": statistics.median(p50s) * 1e3,
            "throughput_ops_s": statistics.median(rates),
            "wall_p50_ms": statistics.median(statistics.median(r["wall"]) for r in rounds) * 1e3,
            "wall_tail_ms": statistics.median(tail(r["wall"]) for r in rounds) * 1e3,
        },
    )
    return out


def timed_rounds(pool, run_one, seconds: float) -> list[dict]:
    return [closed_loop(pool, run_one, seconds / ROUNDS) for _ in range(ROUNDS)]


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    request, check = REQUESTS[workload]
    pool = request_pool(workload, seed, outdir)
    warm = closed_loop(pool, timed(request, check, None), 0.0, whole_cycles=True)
    loop = timed_rounds(pool, timed(request, check, None), seconds / 2 if trace else seconds)
    result = {"stamp": stamp(), "warmup": summarize([warm]), "timed": summarize(loop)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer = Tracer(keep_requests=len(pool))
        tracer.install()
        traced = closed_loop(pool, timed(request, check, tracer), seconds / 2, whole_cycles=True)
        result["traced"] = summarize([traced])
        result["totals"] = tracer.totals
        spans_path = outdir / f"spans-{workload}-s{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.kept:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_path)
    return result


if __name__ == "__main__" and sys.argv[1] == "setup":
    slowdown = statistics.fmean(reference() for _ in range(9)) / REFERENCE_S
    print(json.dumps(dict(stamp(), import_s=IMPORT_S, slowdown=slowdown)))
elif __name__ == "__main__":
    _, _, workload, seed, seconds, trace, outdir = sys.argv
    print(json.dumps(run(workload, int(seed), float(seconds), trace == "1", Path(outdir))))
