"""Command-line front end: JSON in, deterministic JSON (or text) out.

Thin dispatcher over the library; no numerical logic lives here. Documents
are ``{"schema_version": "1", "kind": ..., "payload": ...}`` with complex
entries encoded as ``[re, im]`` pairs and matrices as row-major nested
arrays. Floats are printed with 17 significant digits so output is a
lossless, byte-stable function of input, seed, and tolerance.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 malformed input, 3 unsupported conversion.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite

from . import channels, isomorphism, so3, su2
from .bloch import BlochVector, DensityOperator, bloch_to_density, density_to_bloch
from .channels import ChannelKind, ChoiMatrix, KrausSet
from .errors import DomainError
from .matrix import ComplexMatrix
from .so3 import AxisAngle, Rotation3
from .su2 import Unitary2

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from types import ModuleType
    from typing import Any, Callable, NoReturn, Sequence

SCHEMA_VERSION = "1"

_NUMBER = (int, float)

KINDS = ("kraus", "choi", "rotation", "unitary", "axis_angle", "bloch", "density")


class CliError(Exception):
    """Carries an exit code and a machine-readable error payload."""

    def __init__(self, exit_code: int, code: str, detail: str):
        super().__init__(detail)
        self.exit_code = exit_code
        self.payload = {"error": {"code": code, "detail": detail}}


# ----------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # drop the sign of negative zero
    elif not isfinite(x):
        raise ValueError(f"{x!r} has no JSON form")
    return format(x, ".17g")


def dumps(value: Any) -> str:
    """Compact JSON with fixed float formatting and insertion-order keys.

    Raises ValueError on a NaN or infinite float, which JSON cannot carry.
    Floats come first, being most of every report; bool before int, its
    base class. Strings are escaped by the function ``json.dumps`` calls.
    """
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(dumps, value)) + "]"
    if isinstance(value, dict):
        inner = ",".join([f"{_encode_str(str(k))}:{dumps(v)}" for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_text(value: Any, indent: int = 0) -> str:
    """Line-oriented rendering for --format text.

    A dict inside a list is a block of its own, its first line marked
    ``- ``, so its values are rendered as every other value is.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and not _is_number_row(v):
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
        return "\n".join(lines)
    if isinstance(value, (list, tuple)):
        lines = []
        for v in value:
            if isinstance(v, dict):
                block = render_text(v, indent + 1)
                lines.append(f"{pad}- {block[len(pad) + 2:]}")
            else:
                lines.append(f"{pad}{_inline(v)}")
        return "\n".join(lines)
    return f"{pad}{_inline(value)}"


def _is_number_row(v: Any) -> bool:
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    )


def _inline(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_inline(x) for x in v) + "]"
    return str(v)


# ----------------------------------------------------------------------
# Payload encoding / decoding


def _encode_cmatrix(m: ComplexMatrix) -> list[list[list[float]]]:
    ents, cols = m.entries, m.cols
    return [[[z.real, z.imag] for z in ents[r : r + cols]] for r in range(0, len(ents), cols)]


def _encode_rmatrix(rows: Sequence[Sequence[float]]) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def _decode_complex(value: Any) -> complex | None:
    """The complex of a number or an ``[re, im]`` pair; None for anything else.

    Exact type tests: ``json.loads`` makes no subclass of int or float, and
    bool is neither. ``float()`` of an integer beyond the float range raises
    OverflowError.
    """
    if type(value) in _NUMBER:
        return complex(float(value), 0.0)
    if type(value) is list and len(value) == 2:
        re, im = value
        if type(re) in _NUMBER and type(im) in _NUMBER:
            return complex(float(re), float(im))
    return None


def _decode_cmatrix(value: Any, rows: int, cols: int, where: str) -> ComplexMatrix:
    """The one check of a document's complex matrix: shape, cells, finiteness."""
    if not isinstance(value, list) or len(value) != rows:
        raise CliError(2, "malformed_input", f"{where}: expected {rows} rows")
    flat: list[complex] = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise CliError(2, "malformed_input", f"{where}: row {i} must have {cols} entries")
        for j, cell in enumerate(row):
            z = _decode_complex(cell)
            if z is None:
                raise CliError(
                    2, "malformed_input", f"{where}[{i}][{j}]: expected a number or [re, im] pair"
                )
            flat.append(z)
    entries = tuple(flat)
    if not all(map(cmath.isfinite, entries)):
        raise DomainError("matrix entries must be finite")
    return ComplexMatrix._trusted(rows, cols, entries)


def _decode_real_vector(value: Any, length: int, where: str) -> tuple[float, ...]:
    if (
        not isinstance(value, list)
        or len(value) != length
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise CliError(2, "malformed_input", f"{where}: expected {length} numbers")
    return tuple(float(x) for x in value)


def _payload_field(payload: Any, name: str) -> Any:
    if not isinstance(payload, dict) or name not in payload:
        raise CliError(2, "malformed_input", f"payload must contain {name!r}")
    return payload[name]


def _decode_document(doc: Any) -> tuple[str, Any]:
    if not isinstance(doc, dict):
        raise CliError(2, "malformed_input", "document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CliError(2, "malformed_input", f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise CliError(2, "malformed_input", f"unknown kind {kind!r}")
    payload = doc.get("payload")
    try:
        if kind == "bloch":
            vec = _decode_real_vector(_payload_field(payload, "vector"), 3, "vector")
            return kind, BlochVector(*vec)
        if kind == "axis_angle":
            axis = _decode_real_vector(_payload_field(payload, "axis"), 3, "axis")
            angle = _payload_field(payload, "angle")
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise CliError(2, "malformed_input", "angle must be a number")
            return kind, AxisAngle(axis, float(angle))
        if kind == "rotation":
            raw = _payload_field(payload, "matrix")
            if not isinstance(raw, list) or len(raw) != 3:
                raise CliError(2, "malformed_input", "rotation matrix must have 3 rows")
            rows = tuple(_decode_real_vector(r, 3, f"matrix[{i}]") for i, r in enumerate(raw))
            return kind, Rotation3(rows)
        if kind == "unitary":
            m = _decode_cmatrix(_payload_field(payload, "matrix"), 2, 2, "matrix")
            return kind, Unitary2(m)
        if kind == "density":
            m = _decode_cmatrix(_payload_field(payload, "matrix"), 2, 2, "matrix")
            return kind, DensityOperator(m)
        if kind == "kraus":
            raw = _payload_field(payload, "operators")
            if not isinstance(raw, list) or not raw:
                raise CliError(2, "malformed_input", "operators must be a nonempty array")
            ops = tuple(
                _decode_cmatrix(op, 2, 2, f"operators[{i}]") for i, op in enumerate(raw)
            )
            return kind, KrausSet(ops)
        # The one kind left: "choi".
        m = _decode_cmatrix(_payload_field(payload, "matrix"), 4, 4, "matrix")
        return kind, ChoiMatrix(m)
    except (DomainError, OverflowError) as exc:
        # OverflowError: float() of an integer literal beyond the float range.
        raise CliError(2, "malformed_input", f"invalid {kind} document: {exc}") from exc


def _encode_domain(kind: str, obj: Any) -> dict[str, Any]:
    if kind == "bloch":
        payload: dict[str, Any] = {"vector": list(obj.as_tuple())}
    elif kind == "axis_angle":
        payload = {"axis": list(obj.axis), "angle": obj.angle}
    elif kind == "rotation":
        payload = {"matrix": _encode_rmatrix(obj.matrix)}
    elif kind == "kraus":
        payload = {"operators": [_encode_cmatrix(op) for op in obj.operators]}
    else:  # unitary, density and choi, the kinds left in KINDS
        payload = {"matrix": _encode_cmatrix(obj.matrix)}
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


# ----------------------------------------------------------------------
# Conversion graph

_CONVERSIONS: dict[tuple[str, str], Callable[[Any], Any]] = {
    ("bloch", "density"): bloch_to_density,
    ("density", "bloch"): density_to_bloch,
    ("axis_angle", "rotation"): so3.rotation_from_axis_angle,
    ("axis_angle", "unitary"): su2.unitary_from_axis_angle,
    ("rotation", "axis_angle"): so3.axis_angle_from_rotation,
    ("rotation", "unitary"): isomorphism.phi,
    ("unitary", "axis_angle"): su2.axis_angle_from_unitary,
    ("unitary", "rotation"): isomorphism.phi_inverse,
    ("kraus", "choi"): channels.choi_of,
    ("choi", "kraus"): channels.kraus_from_choi,
}


def _cmd_convert(args: argparse.Namespace) -> dict[str, Any]:
    kind, obj = _decode_document(_load_json(args.input))
    target = args.to
    if target == kind:
        return _encode_domain(kind, obj)
    func = _CONVERSIONS.get((kind, target))
    if func is None:
        raise CliError(3, "unsupported_conversion", f"no conversion from {kind} to {target}")
    return _encode_domain(target, func(obj))


def _kraus_input(args: argparse.Namespace) -> KrausSet:
    return _expect_kind(_load_json(args.input), "kraus", f"{args.command} expects a kraus document")


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    k = _kraus_input(args)
    result = channels.classify(k, tol=args.tol)
    report: dict[str, Any] = {"cptp": result.kind is not ChannelKind.NOT_CPTP}
    if report["cptp"]:
        report["choi_rank"] = result.choi_rank
    report["kind"] = result.kind.value
    if result.kind is ChannelKind.UNITARY_CONJUGATION:
        assert result.extracted_unitary is not None
        report["unitary"] = _encode_cmatrix(result.extracted_unitary)
        # invert reuses the verdict classify has just kept on k.
        inverse = channels.invert(k, tol=args.tol)
        report["inverse"] = {"operators": [_encode_cmatrix(op) for op in inverse.operators]}
    return report


def _cmd_bloch_action(args: argparse.Namespace) -> dict[str, Any]:
    action = channels.bloch_affine_action(_kraus_input(args), tol=args.tol)
    dev = so3.orthogonality_deviation(action.matrix)
    return {
        "M": _encode_rmatrix(action.matrix),
        "t": list(action.translation),
        "isometry": dev <= args.tol,
    }


# ----------------------------------------------------------------------
# Verification modes


# Each mode draws its cases, from the documents or from the seeded RNG, and
# checks one case at a time. A check returns the case's deviation, its
# verdict and the mode's fields of the case entry, in report order.


def _sampler(seed: int) -> tuple[random.Random, ModuleType]:
    """The seeded generator and the sampling module, imported here so that
    only a sampled ``verify`` pays for ``random``."""
    import random

    from . import sampling

    return random.Random(seed), sampling


def _diagram_cases(args: argparse.Namespace, docs: list[Any]) -> list[Any]:
    if docs:
        raise CliError(2, "malformed_input", "diagram mode is sampled; no documents expected")
    rng, sampling = _sampler(args.seed)
    return [(sampling.bloch_in_ball(rng), sampling.axis_angle(rng)) for _ in range(args.samples)]


def _diagram_check(case: Any, tol: float) -> tuple[float, bool, dict[str, Any]]:
    report = isomorphism.verify_state_diagram(*case, tol=tol)
    return report.max_deviation, report.commutes, {"max_deviation": report.max_deviation}


def _double_cover_cases(args: argparse.Namespace, docs: list[Any]) -> list[Any]:
    if docs:
        expected = "double-cover expects unitary documents"
        return [_expect_kind(doc, "unitary", expected) for doc in docs]
    rng, sampling = _sampler(args.seed)
    return [sampling.su2_haar(rng) for _ in range(args.samples)]


def _double_cover_check(u: Unitary2, tol: float) -> tuple[float, bool, dict[str, Any]]:
    r_plus = isomorphism.phi_inverse(u)
    r_minus = isomorphism.phi_inverse(su2.negate(u))
    dev = max(
        abs(r_plus.matrix[a][b] - r_minus.matrix[a][b]) for a in range(3) for b in range(3)
    )
    return dev, dev == 0.0, {"max_deviation": dev}


def _group_cases(args: argparse.Namespace, docs: list[Any]) -> list[Any]:
    if docs:
        expected = "group expects axis_angle documents"
        return [[_expect_kind(doc, "axis_angle", expected) for doc in docs]]
    rng, sampling = _sampler(args.seed)
    return [[sampling.axis_angle(rng) for _ in range(3)] for _ in range(args.samples)]


def _group_check(word: list[AxisAngle], tol: float) -> tuple[float, bool, dict[str, Any]]:
    report = isomorphism.verify_group_diagram(word, tol=tol)
    fields = {"word_length": len(word), "max_deviation": report.max_deviation}
    return report.max_deviation, report.commutes, fields


def _inverse_pair_cases(args: argparse.Namespace, docs: list[Any]) -> list[Any]:
    if docs:
        if len(docs) != 2:
            raise CliError(2, "malformed_input", "inverse-pair takes exactly two kraus documents")
        expected = "inverse-pair expects kraus documents"
        return [tuple(_expect_kind(doc, "kraus", expected) for doc in docs)]
    rng, sampling = _sampler(args.seed)
    pairs = []
    for _ in range(args.samples):
        k, _u, _w, _m = sampling.redundant_unitary_kraus(rng, 1 + rng.randrange(3))
        pairs.append((k, channels.invert(k, tol=args.tol)))
    return pairs


def _inverse_pair_check(pair: Any, tol: float) -> tuple[float, bool, dict[str, Any]]:
    report = channels.verify_inverse_pair(*pair, tol=tol)
    fields = {
        "alpha_square_sum": report.alpha_square_sum,
        "max_residual": report.max_residual,
        "alpha": _encode_cmatrix(report.alpha),
    }
    return max(report.max_residual, abs(report.alpha_square_sum - 1.0)), report.valid, fields


_VERIFY_MODES = {
    "diagram": (_diagram_cases, _diagram_check),
    "double-cover": (_double_cover_cases, _double_cover_check),
    "group": (_group_cases, _group_check),
    "inverse-pair": (_inverse_pair_cases, _inverse_pair_check),
}


def _expect_kind(doc: Any, kind: str, expected: str) -> Any:
    """The decoded ``doc``, which must be of ``kind``; ``expected`` opens the
    error text otherwise."""
    got, obj = _decode_document(doc)
    if got != kind:
        raise CliError(2, "malformed_input", f"{expected}, got {got}")
    return obj


def _cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    draw, check = _VERIFY_MODES[args.mode]
    cases = []
    failures = []
    worst = 0.0
    for i, case in enumerate(draw(args, [_load_json(path) for path in args.inputs])):
        dev, ok, fields = check(case, args.tol)
        worst = max(worst, dev)
        if not ok:
            failures.append(i)
        cases.append({"index": i, **fields, "pass": ok})
    return {
        "mode": args.mode,
        "samples": len(cases),
        "seed": args.seed,
        "tol": args.tol,
        "max_deviation": worst,
        "pass": not failures,
        "failures": failures,
        "cases": cases,
    }


# ----------------------------------------------------------------------
# Plumbing


def _load_json(path: str) -> Any:
    # Bytes from stdin and from files alike, decoded here and not by the
    # locale-dependent text layer of sys.stdin.
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise CliError(2, "malformed_input", f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(2, "malformed_input", f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, "malformed_input", f"invalid JSON: {exc.msg} at line {exc.lineno}") from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise CliError(2, "malformed_input", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError(2, "malformed_input", "invalid JSON: nested too deeply") from exc


def _render(report: Any, fmt: str) -> str:
    try:
        return (dumps(report) if fmt == "json" else render_text(report)) + "\n"
    except ValueError as exc:
        # A non-finite result, from finite inputs whose products overflow.
        raise CliError(2, "malformed_input", f"a result is not finite: {exc}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a JSON ``malformed_input`` error, not usage text."""

    def error(self, message: str) -> NoReturn:
        raise CliError(2, "malformed_input", message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use and not at import.

    Building it costs far more than a parse, and ``parse_args`` leaves it
    unchanged, so every ``main`` call shares it. The subparsers inherit
    ``_Parser`` through ``add_subparsers``.
    """
    parser = _Parser(
        prog="blochiso",
        description="Convert between qubit-state representations and analyze channel reversibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="convert a document to another kind")
    p_convert.add_argument("--to", required=True, choices=KINDS, help="target kind")
    p_convert.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    _add_common(p_convert)

    p_classify = sub.add_parser("classify", help="decide invertibility of a Kraus channel")
    p_classify.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    _add_common(p_classify)

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    p_verify.add_argument("mode", choices=tuple(_VERIFY_MODES))
    p_verify.add_argument("inputs", nargs="*", help="optional input documents")
    p_verify.add_argument("--samples", type=int, default=1000, help="number of random cases")
    p_verify.add_argument("--seed", type=int, default=42, help="random seed")
    _add_common(p_verify)

    p_action = sub.add_parser("bloch-action", help="affine Bloch-vector action of a channel")
    p_action.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    _add_common(p_action)

    return parser


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse a command line, taking ``verify`` documents after options too.

    ``parse_known_args`` returns the documents that follow an option as
    leftovers and, unlike ``parse_intermixed_args``, leaves the shared
    parser unchanged.
    """
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        if args.command != "verify" or any(t.startswith("-") and t != "-" for t in extra):
            raise CliError(2, "malformed_input", "unrecognized arguments: " + " ".join(extra))
        args.inputs = [*args.inputs, *extra]
    return args


def _check_args(args: argparse.Namespace) -> None:
    # Checked after parsing: whether --samples is used depends on the inputs.
    if not (isfinite(args.tol) and args.tol >= 0.0):
        raise CliError(
            2, "malformed_input", f"--tol must be finite and non-negative, got {args.tol!r}"
        )
    if args.command == "verify" and not args.inputs and args.samples < 1:
        raise CliError(2, "malformed_input", f"--samples must be at least 1, got {args.samples}")


def _run(args: argparse.Namespace) -> dict[str, Any]:
    try:
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bloch_action(args)
    except DomainError as exc:
        # The library rejected a value built from the input: products of huge
        # entries overflowing, or a --tol too tight for the sampled
        # inverse-pair channels to classify as unitary.
        raise CliError(2, "malformed_input", str(exc)) from exc


def main(argv: Sequence[str] | None = None) -> int:
    fmt = "json"  # until the command line has parsed
    try:
        args = _parse(argv)
        fmt = args.format
        _check_args(args)
        report = _run(args)
        out = _render(report, fmt)
    except CliError as exc:
        sys.stdout.write(_render(exc.payload, fmt))
        return exc.exit_code
    sys.stdout.write(out)
    if args.command == "verify" and not report["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
