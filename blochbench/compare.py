"""Compare two result files that run.py wrote under .blochbench/results/.

Usage: python3 blochbench/compare.py BASE.json NEW.json

Prints each metric of both runs with the ratio NEW/BASE, and whether each
``verify`` digest matches. Refuses, with exit code 2, to compare runs of
different workloads, seeds, trace settings or kernel backends. Exits 1 when
a ``verify`` digest differs or either run was not correct, else 0.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in ("workload", "seed", "trace", "backend"):
        if base["stamp"][key] != new["stamp"][key]:
            print(f"refusing to compare: {key} {base['stamp'][key]} vs {new['stamp'][key]}", file=sys.stderr)
            return 2
    print(f"{base['stamp']['workload']} on {base['stamp']['backend']}: {argv[0]} -> {argv[1]}")
    old_metrics, new_metrics = base["summary"]["metrics"], new["summary"]["metrics"]
    for name, metric in old_metrics.items():
        if name in new_metrics:
            ratio = new_metrics[name]["value"] / metric["value"] if metric["value"] else float("nan")
            print(f"  {name:<44} {metric['value']:>12.6g} {new_metrics[name]['value']:>12.6g} {metric['unit']:<6} x{ratio:.3f}")
    status = 0
    for mode, digest in base["digests"].items():
        same = new["digests"].get(mode) == digest
        print(f"  verify {mode:<12} bytes {'same' if same else 'DIFFERENT'}")
        status |= not same
    for path, result in zip(argv, (base, new)):
        if not result["summary"]["correct"]:
            print(f"  {path}: not correct ({result['summary']['failed']} failed)")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
