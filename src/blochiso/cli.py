"""Command-line front end: JSON in, deterministic JSON (or text) out.

Thin dispatcher over the library; no numerical logic lives here. Documents
are ``{"schema_version": "1", "kind": ..., "payload": ...}`` with complex
entries encoded as ``[re, im]`` pairs and matrices as row-major nested
arrays. Floats are printed with 17 significant digits so output is a
lossless, byte-stable function of input, seed, and tolerance.

A plain ``convert``, ``classify`` or ``bloch-action`` line is parsed
directly, against the same option table argparse is built from; argparse is
imported and built only for the other lines (``verify``, help, usage
errors), so a document command loads neither it nor ``gettext``.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 malformed input, 3 unsupported conversion.
"""

from __future__ import annotations

import cmath
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from types import SimpleNamespace

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

# A JSON number, tested by exact type: ``json.loads`` makes no subclass of
# int or float, and bool is neither.
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
    """Line-oriented rendering for --format text of a dict or a list.

    A dict inside a list is a block of its own, its first line marked
    ``- ``, so its values are rendered as every other value is.
    """
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and not _is_number_row(v):
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
        return "\n".join(lines)
    for v in value:
        if isinstance(v, dict):
            block = render_text(v, indent + 1)
            lines.append(f"{pad}- {block[len(pad) + 2:]}")
        else:
            lines.append(f"{pad}{_inline(v)}")
    return "\n".join(lines)


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

    ``float()`` of an integer beyond the float range raises OverflowError.
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
        or not all(type(x) in _NUMBER for x in value)
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
            if type(angle) not in _NUMBER:
                raise CliError(2, "malformed_input", "angle must be a number")
            return kind, AxisAngle(axis, float(angle))
        if kind == "rotation":
            raw = _payload_field(payload, "matrix")
            if not isinstance(raw, list) or len(raw) != 3:
                raise CliError(2, "malformed_input", "rotation matrix must have 3 rows")
            rows = tuple(_decode_real_vector(r, 3, f"matrix[{i}]") for i, r in enumerate(raw))
            if not all(isfinite(x) for r in rows for x in r):
                raise DomainError("rotation entries must be finite")
            return kind, Rotation3._built(rows)
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


def _cmd_convert(args: SimpleNamespace) -> dict[str, Any]:
    kind, obj = _decode_document(_load_json(args.input))
    target = args.to
    if target == kind:
        return _encode_domain(kind, obj)
    func = _CONVERSIONS.get((kind, target))
    if func is None:
        raise CliError(3, "unsupported_conversion", f"no conversion from {kind} to {target}")
    return _encode_domain(target, func(obj))


def _kraus_input(args: SimpleNamespace) -> KrausSet:
    return _expect_kind(_load_json(args.input), "kraus", f"{args.command} expects a kraus document")


def _cmd_classify(args: SimpleNamespace) -> dict[str, Any]:
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


def _cmd_bloch_action(args: SimpleNamespace) -> dict[str, Any]:
    action = channels.bloch_affine_action(_kraus_input(args), tol=args.tol)
    dev = so3.orthogonality_deviation(action.matrix)
    return {
        "M": _encode_rmatrix(action.matrix),
        "t": list(action.translation),
        "isometry": dev <= channels._deficit_bound(args.tol),  # classify's delta
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


def _diagram_cases(args: SimpleNamespace, docs: list[Any]) -> list[Any]:
    if docs:
        raise CliError(2, "malformed_input", "diagram mode is sampled; no documents expected")
    rng, sampling = _sampler(args.seed)
    return [(sampling.bloch_in_ball(rng), sampling.axis_angle(rng)) for _ in range(args.samples)]


def _diagram_check(case: Any, tol: float) -> tuple[float, bool, dict[str, Any]]:
    report = isomorphism.verify_state_diagram(*case, tol=tol)
    return report.max_deviation, report.commutes, {"max_deviation": report.max_deviation}


def _double_cover_cases(args: SimpleNamespace, docs: list[Any]) -> list[Any]:
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


def _group_cases(args: SimpleNamespace, docs: list[Any]) -> list[Any]:
    if docs:
        expected = "group expects axis_angle documents"
        return [[_expect_kind(doc, "axis_angle", expected) for doc in docs]]
    rng, sampling = _sampler(args.seed)
    return [[sampling.axis_angle(rng) for _ in range(3)] for _ in range(args.samples)]


def _group_check(word: list[AxisAngle], tol: float) -> tuple[float, bool, dict[str, Any]]:
    report = isomorphism.verify_group_diagram(word, tol=tol)
    fields = {"word_length": len(word), "max_deviation": report.max_deviation}
    return report.max_deviation, report.commutes, fields


def _inverse_pair_cases(args: SimpleNamespace, docs: list[Any]) -> list[Any]:
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
        "infidelity": report.infidelity,
        "tp_deviation": report.tp_deviation,
    }
    dev = max(abs(report.alpha_square_sum - 1.0), report.infidelity, report.tp_deviation)
    return dev, report.valid, fields


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


def _cmd_verify(args: SimpleNamespace) -> dict[str, Any]:
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
            if sys.stdin is None:  # the process started with fd 0 closed
                raise CliError(2, "malformed_input", "cannot read -: stdin is closed")
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


# The arguments of a document subcommand, in the order of its namespace:
# name, converter, choices (None: any value), default (None: required) and
# help. _build_parser adds them, and _direct_parse reads them; verify takes
# the last two as well.
_TOL = ("--tol", float, None, 1e-9, "comparison tolerance")
_FORMAT = ("--format", str, ("json", "text"), "json", "output format")
_INPUT = ("input", str, None, "-", "input file or - for stdin")
_DOCUMENT_ARGUMENTS = {
    "convert": (("--to", str, KINDS, None, "target kind"), _INPUT, _TOL, _FORMAT),
    "classify": (_INPUT, _TOL, _FORMAT),
    "bloch-action": (_INPUT, _TOL, _FORMAT),
}


@functools.cache
def _build_parser() -> tuple[Any, dict[str, Any]]:
    """The one parser of the process and its subcommands' parsers by name,
    built on first use and not at import.

    Building it costs far more than a parse, and ``parse_known_args`` leaves
    it unchanged, so every ``main`` call shares it. The subparsers inherit
    ``_Parser`` through ``add_subparsers``. argparse is imported here, so
    that a document command, which the direct parse reads, loads neither it
    nor its ``gettext``.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Raises a usage error as a JSON ``malformed_input`` error, not usage
        text, with an invalid choice's options quoted as Python 3.10-3.13.0
        quote them (later releases list them bare), so that the detail is the
        same on all."""

        def error(self, message: str) -> NoReturn:
            head, sep, choices = message.rpartition(" (choose from ")
            if sep and not choices.startswith("'"):
                message = f"{head}{sep}{', '.join(map(repr, choices[:-1].split(', ')))})"
            raise CliError(2, "malformed_input", message)

    class _Formatter(argparse.HelpFormatter):
        """Help wrapped at 78 columns, what the default gives off a tty. The
        default reads the terminal's width through ``shutil``, whose import
        (``bz2``, ``lzma``, ``zlib``, ``fnmatch``) every parser build would
        pay."""

        def __init__(self, prog: str) -> None:
            super().__init__(prog, width=78)

    def add_arguments(parser: _Parser, arguments: Sequence[tuple]) -> None:
        for name, convert, choices, default, text in arguments:
            if name.startswith("-"):
                parser.add_argument(
                    name, type=convert, choices=choices, default=default,
                    required=default is None, help=text,
                )
            else:
                parser.add_argument(name, nargs="?", type=convert, default=default, help=text)

    parser = _Parser(
        prog="blochiso",
        description="Convert between qubit-state representations and analyze channel reversibility.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add = functools.partial(sub.add_parser, formatter_class=_Formatter)

    p_convert = add("convert", help="convert a document to another kind")
    add_arguments(p_convert, _DOCUMENT_ARGUMENTS["convert"])

    p_classify = add("classify", help="decide invertibility of a Kraus channel")
    add_arguments(p_classify, _DOCUMENT_ARGUMENTS["classify"])

    p_verify = add("verify", help="run a seeded verification suite")
    p_verify.add_argument("mode", choices=tuple(_VERIFY_MODES))
    # A default, so that argparse does not count the documents as required.
    p_verify.add_argument("inputs", nargs="*", default=(), help="optional input documents")
    p_verify.add_argument("--samples", type=int, default=1000, help="number of random cases")
    p_verify.add_argument("--seed", type=int, default=42, help="random seed")
    add_arguments(p_verify, (_TOL, _FORMAT))

    p_action = add("bloch-action", help="affine Bloch-vector action of a channel")
    add_arguments(p_action, _DOCUMENT_ARGUMENTS["bloch-action"])

    return parser, sub.choices


def _direct_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain document command line; None for
    any other line.

    A plain line is ``convert``, ``classify`` or ``bloch-action``, then
    exact option names each with a value that does not start with ``-``,
    and at most one input. Any other line (help, ``--``, an abbreviation,
    the ``--tol=`` form, a value ``float()`` or the choices refuse) is left
    to argparse, which alone writes help and usage errors.
    """
    arguments = _DOCUMENT_ARGUMENTS.get(argv[0]) if argv else None
    if arguments is None:
        return None
    fields: dict[str, Any] = {"command": argv[0]}
    options = {}
    for name, convert, choices, default, _ in arguments:
        fields[name.lstrip("-")] = default
        options[name] = convert, choices
    tokens = iter(argv[1:])
    seen_input = False
    for token in tokens:
        if token.startswith("-") and token != "-":
            # "-" stands in for a missing value, refused like a negative one.
            value = next(tokens, "-")
            if token not in options or value.startswith("-"):
                return None
            convert, choices = options[token]
            try:
                fields[token[2:]] = value = convert(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        elif seen_input:
            return None
        else:
            fields["input"], seen_input = token, True
    if None in fields.values():  # a required option is missing
        return None
    return SimpleNamespace(**fields)


def _parse(argv: Sequence[str] | None) -> SimpleNamespace:
    """Parse a command line once, directly or with its subcommand's parser,
    taking ``verify`` documents after options too.

    A plain document command line takes the direct parse, and no parser is
    built for it. On any other line, the top-level parser would match the
    subcommand and then run that parser, so only a line whose first token
    names no subcommand (none, ``-h``, an unknown name, an option) takes the
    nested parse, which mostly answers with help or a usage error. ``parse_known_args`` returns
    the documents that follow an option as leftovers and, unlike
    ``parse_intermixed_args``, leaves the shared parser unchanged.

    ``--`` means one thing on every Python: a leading one is dropped, a
    second is an unknown subcommand, and one after the subcommand ends the
    options, so that the tokens after it are ``verify`` documents, a second
    ``--`` among them too (the first is the mode if none came before).
    argparse's own handling of all three varies across Python releases, so
    it never sees ``verify``'s first ``--``.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    args = _direct_parse(argv)
    if args is not None:
        return args
    parser, commands = _build_parser()
    subparser = commands.get(argv[0]) if argv else None
    if len(argv) > 1 and argv[0] == "--":
        parser.error(f"argument command: invalid choice: '--' (choose from {', '.join(commands)})")
    rest, documents = argv[1:], []
    if subparser is None:
        args, extra = parser.parse_known_args(argv, SimpleNamespace())
    else:
        if argv[0] == "verify" and "--" in rest:
            cut = rest.index("--")
            rest, documents = rest[:cut], rest[cut + 1 :]
            if not any(t in _VERIFY_MODES for t in rest):  # the mode comes after it
                rest, documents = rest + documents[:1], documents[1:]
        args, extra = subparser.parse_known_args(rest, SimpleNamespace(command=argv[0]))
    if extra or documents:
        cut = extra.index("--") if "--" in extra else len(extra)
        head, tail = extra[:cut], extra[cut + 1 :] + documents
        if args.command == "verify" and not any(t.startswith("-") and t != "-" for t in head):
            args.inputs = [*args.inputs, *head, *tail]
        elif head or tail:
            raise CliError(2, "malformed_input", "unrecognized arguments: " + " ".join(head or tail))
    return args


def _check_args(args: SimpleNamespace) -> None:
    # Checked after parsing: whether --samples is used depends on the inputs.
    if not (isfinite(args.tol) and args.tol >= 0.0):
        raise CliError(
            2, "malformed_input", f"--tol must be finite and non-negative, got {args.tol!r}"
        )
    if args.command == "verify" and not args.inputs and args.samples < 1:
        raise CliError(2, "malformed_input", f"--samples must be at least 1, got {args.samples}")


def _run(args: SimpleNamespace) -> dict[str, Any]:
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
        # entries overflowing, or a --tol too tight for the sampled inverse-pair
        # channels to classify as unitary. No OverflowError gets here: the
        # decoder catches its own, the trace gate's Tr J check bounds
        # _chi_deficit's abs(), and verify_inverse_pair converts its own.
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
