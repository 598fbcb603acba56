"""blochiso benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the repository root):

  python3 blochbench/run.py --workload channels|geometry|cli|all \\
      [--seed N] [--seconds S] [--trace 0|1]

Workloads (one caller, no threads, the next request after the previous one):

- ``channels``: what ``blochiso classify`` computes for one Kraus document
  (``classify``, then ``invert`` and ``verify_inverse_pair`` when the channel
  is invertible), on a seeded mix of redundant unitary sets, depolarizing,
  amplitude-damping and non-trace-preserving channels.
- ``geometry``: one case of each diagram check (state diagram, ``phi_inverse``
  of U against -U, the group diagram on a word of three, a ``phi`` lift).
- ``cli``: one ``blochiso`` command line per request, through ``cli.main``
  with stdout captured (argparse, decoding, compute, encoding), over the
  golden cases and seeded classify, convert and bloch-action documents. The
  cost of a fresh CLI process, interpreter start plus ``import blochiso.cli``,
  is its ``setup_s``; a process per request measured far less steadily on a
  shared 2-vCPU machine.

With ``--trace 0`` the run reports the end-to-end metrics: median latency
(the CPU time of each request), throughput (requests over wall time) and
tail latency (the highest percentile with 10 requests beyond it), each the
median over the run's ten back-to-back rounds, every round measured whole
(see ``worker.summarize``); the median set-up time over fresh processes
(spawn until ``import blochiso`` returns, ``blochiso.cli`` for ``cli``);
and peak RSS. The shared host runs Python up to twice as slowly for
minutes at a time, so the median latency, throughput and set-up time are
scaled by how much slower than usual a fixed pure-Python workload ran in
the same round or process (``worker.reference``); the result file keeps
the unscaled figures under ``raw`` and ``setup_raw``, and the report
prints them. Error rate, failed over attempted requests, is printed and
carried by the result's ``failed`` and ``attempted``; it is 0 on a correct
run. With ``--trace 1`` the first half runs untraced and the second half
traced, and the run reports per-request layer counts and self times (see
``tracer.py``), unscaled. Every output is checked; any failure makes the
run exit 1. The library is imported from ``src/`` of this checkout, on the
kernel backend the environment selects (the default unless
``BLOCHISO_KERNEL`` is set); the result records which one ran.
Documents, spans and one result file per run go to ``.blochbench/``. The
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".blochbench"
WORKLOADS = ("channels", "geometry", "cli")
SETUP_REPEATS = 11
PROBE_REPEATS = 7
VERIFY_MODES = ("diagram", "double-cover", "group", "inverse-pair")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_spawn(cmd: list[str], env: dict) -> tuple[float, str]:
    """Seconds from spawn until the child's first stdout line, and the rest of stdout."""
    start = perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        elapsed = perf_counter() - start
        rest, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or not first:
        raise BenchError(f"{' '.join(cmd[1:])} failed: {err.strip()[-300:]}")
    return elapsed, first + rest


def probe(module: str, env: dict) -> tuple[float, dict]:
    """A fresh process that imports ``module``: seconds from spawn until the
    import returned, and the stamp it prints (with its own import time)."""
    elapsed, out = timed_spawn([sys.executable, str(HERE / "worker.py"), "setup", module], env)
    return elapsed, json.loads(out.splitlines()[1])


def measure_setup(workload: str, env: dict) -> tuple[float, dict, dict]:
    """Median set-up time over fresh processes, each scaled by the slowdown
    its process measured (see ``worker.reference``); the same unscaled; and
    the stamp of the first process."""
    module = "blochiso.cli" if workload == "cli" else "blochiso"
    probes = [probe(module, env) for _ in range(SETUP_REPEATS)]
    stamp = {k: v for k, v in probes[0][1].items() if k not in ("import_s", "slowdown")}
    expected = (ROOT / "src" / "blochiso").resolve()
    if Path(stamp["blochiso_path"]) != expected:
        raise BenchError(f"refusing to run: imported blochiso from {stamp['blochiso_path']}, not {expected}")
    scaled = statistics.median(elapsed / out["slowdown"] for elapsed, out in probes)
    raw = {
        "setup_s": statistics.median(elapsed for elapsed, _ in probes),
        "slowdown": statistics.median(out["slowdown"] for _, out in probes),
    }
    return scaled, raw, stamp


def verify_digests(env: dict) -> tuple[dict, list[str]]:
    """SHA-256 of ``blochiso verify MODE --samples 1000 --seed 42`` stdout, per mode."""
    digests, errors = {}, []
    for mode in VERIFY_MODES:
        argv = ["verify", mode, "--samples", "1000", "--seed", "42"]
        proc = subprocess.run(
            [sys.executable, "-m", "blochiso.cli", *argv], env=env, cwd=ROOT, capture_output=True, timeout=120
        )
        digests[mode] = hashlib.sha256(proc.stdout).hexdigest()
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {}
        if proc.returncode != 0 or report.get("pass") is not True or report.get("samples") != 1000:
            errors.append(f"verify {mode}: exit {proc.returncode}, report did not pass 1000 samples")
    return digests, errors


def interpreter_ms(env: dict) -> float:
    """Median wall time of a bare ``python -c pass`` over fresh processes."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-request layer counts and self times from the traced half of a run."""
    n = totals["requests"]
    calls, incl, selfs, owns, layers = (totals[k] for k in ("calls", "incl", "self", "own", "layer"))

    def count(name):
        return calls.get(name, 0) / n

    def us(table, name):
        return table.get(name, 0.0) / n * 1e6

    def unique(name):
        made = calls.get(name, 0)
        return totals["unique"].get(name, 0) / made if made else 1.0

    return {
        "kernels.jacobi_hermitian.calls": count("kernels.jacobi_hermitian"),
        "kernels.jacobi_hermitian.self_us": us(selfs, "kernels.jacobi_hermitian"),
        "kernels.matmul.calls": count("kernels.matmul"),
        "kernels.matmul.cmacs": totals["extra"].get("kernels.matmul.cmacs", 0) / n,
        "kernels.matmul.self_us": us(selfs, "kernels.matmul"),
        "matrix.ComplexMatrix.constructed": count("matrix.ComplexMatrix"),
        "matrix.ComplexMatrix.self_us": us(selfs, "matrix.ComplexMatrix"),
        "matrix.hermitian_eig.calls": count("matrix.hermitian_eig"),
        "matrix.hermitian_eig.self_us": us(owns, "matrix.hermitian_eig"),
        "matrix.hermitian_eig.unique_ratio": unique("matrix.hermitian_eig"),
        "matrix.self_us": us(layers, "matrix"),
        "channels.choi_of.calls": count("channels.choi_of"),
        "channels.choi_of.unique_ratio": unique("channels.choi_of"),
        "channels.classify.self_us": us(owns, "channels.classify"),
        "channels.extract_unitary_via_gram.calls": count("channels.extract_unitary_via_gram"),
        "channels.extract_unitary_via_gram.self_us": us(owns, "channels.extract_unitary_via_gram"),
        "channels.invert.calls": count("channels.invert"),
        "channels.self_us": us(layers, "channels"),
        "bloch.self_us": us(layers, "bloch"),
        "so3.self_us": us(layers, "so3"),
        "su2.self_us": us(layers, "su2"),
        "isomorphism.phi_inverse.calls": count("isomorphism.phi_inverse"),
        "isomorphism.self_us": us(layers, "isomorphism"),
        "cli.main_ms": us(incl, "cli.main") / 1e3,
        "cli.dumps_ms": us(incl, "cli.dumps") / 1e3,
        "cli.self_ms": us(owns, "cli.main") / 1e3,
    }


END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix in ("us", "ms", "ratio"):
        if name.endswith("_" + suffix):
            return suffix
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    setup_s, setup_raw, stamp = measure_setup(workload, env)
    stamp.update(nproc=os.cpu_count(), commit=git_commit(), workload=workload, seed=seed, trace=int(trace))
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "run", workload, str(seed), str(seconds), str(int(trace)), str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker failed: {proc.stderr.strip()[-600:]}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    if raw["stamp"]["backend"] != stamp["backend"]:
        raise BenchError("the worker and the set-up probes ran different kernel backends")
    digests, digest_errors = verify_digests(env)
    phases = [raw["warmup"], raw["timed"]] + ([raw["traced"]] if trace else [])
    attempted = sum(p["attempted"] for p in phases) + len(VERIFY_MODES)
    errors = [e for p in phases for e in p["errors"]] + digest_errors
    failed = sum(p["failed"] for p in phases) + len(digest_errors)
    timed = raw["timed"]
    result = {"stamp": stamp, "digests": digests, "errors": errors[:10], "timed": timed, "setup_raw": setup_raw}
    if trace:
        import_ms = statistics.median(probe("blochiso.cli", env)[1]["import_s"] * 1e3 for _ in range(PROBE_REPEATS))
        metrics = layer_metrics(raw["totals"])
        metrics.update(
            {
                "cli.import_ms": import_ms,
                "cli.interpreter_ms": interpreter_ms(env),
                "trace.overhead_ratio": raw["traced"].get("throughput_ops_s", 0.0) / timed.get("throughput_ops_s", 1.0),
            }
        )
        result["classes"] = raw["totals"]["classes"]
        result["spans_file"] = raw["spans_file"]
    else:
        metrics = {
            # A run whose every request failed has no timings; it reports 0 and correct=false.
            "latency_p50_ms": timed.get("p50_ms", 0.0),
            "latency_tail_ms": timed.get("tail_ms", 0.0),
            "throughput_ops_s": timed.get("throughput_ops_s", 0.0),
            "setup_s": setup_s,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    result["summary"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    name = f"{workload}-s{seed}-t{int(trace)}.json"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    stamp, timed, summary = result["stamp"], result["timed"], result["summary"]
    print(f"== {stamp['workload']} (seed {stamp['seed']}, trace {stamp['trace']})")
    print(
        f"   python {stamp['python']}, nproc {stamp['nproc']}, backend {stamp['backend']}, "
        f"commit {stamp['commit'][:12]}, blochiso {stamp['blochiso_path']}"
    )
    for name, metric in summary["metrics"].items():
        note = ""
        if name == "latency_tail_ms" and "tail_pct" in timed:
            note = (
                f"  (median of {timed['rounds']} rounds, each at p{timed['tail_pct']:.6g} or above: "
                f"10 of at least {timed['round_samples']} requests beyond)"
            )
        elif name in ("latency_p50_ms", "throughput_ops_s") and "rounds" in timed:
            note = f"  (median of {timed['rounds']} rounds, {timed['samples']} requests)"
        print(f"   {name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "raw" in timed:
        raw = timed["raw"]
        print(
            f"   unscaled: p50 {raw['p50_ms']:.6g} ms (wall {raw['wall_p50_ms']:.6g}), "
            f"wall tail {raw['wall_tail_ms']:.6g} ms, "
            f"{raw['throughput_ops_s']:.6g} 1/s at slowdown {timed['slowdown']:.4g}; "
            f"setup {result['setup_raw']['setup_s']:.6g} s at slowdown {result['setup_raw']['slowdown']:.4g}"
        )
    rate = summary["failed"] / summary["attempted"]
    print(f"   {'error_rate':<44} {rate:>14.6g} ratio  ({summary['failed']} of {summary['attempted']} failed)")
    for mode, digest in result["digests"].items():
        print(f"   verify {mode:<12} sha256 {digest}")
    for cls, table in sorted(result.get("classes", {}).items()):
        per = {k: v / table["requests"] for k, v in table["calls"].items()}
        print(
            f"   class {cls:<34} jacobi {per.get('kernels.jacobi_hermitian', 0):g}/req, "
            f"ComplexMatrix {per.get('matrix.ComplexMatrix', 0):g}/req, matmul {per.get('kernels.matmul', 0):g}/req"
        )
    for error in result["errors"]:
        print(f"   FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/blochiso/__init__.py", "tests/golden/expected") if not (ROOT / p).exists()]
    if missing:
        print(f"blochbench: not a blochiso checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"blochbench: {exc}", file=sys.stderr)
        return 2
    for result in results.values():
        report(result)
    summaries = {w: r["summary"] for w, r in results.items()}
    print(json.dumps(summaries[args.workload] if args.workload != "all" else summaries))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
