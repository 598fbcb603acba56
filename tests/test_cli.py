"""CLI behavior: documents, conversions, reports, exit codes, goldens."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import inf, nan, sqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blochiso import channels, cli, sampling, so3
from blochiso.bloch import bloch_to_density
from blochiso.cli import KINDS, CliError, main
from helpers import (
    GOLDEN_CASES,
    GOLDEN_DIR as GOLDEN,
    ROUNDOFF_UNITARY_OPS,
    USAGE_ERROR_STDOUT,
    _decode_cmatrix_reference,
    dumps_reference,
    fingerprint,
    make_depolarizing,
    outcome,
    run_golden_case as run_case,
)


def run_cli(argv, stdin_text=None):
    buffer = io.StringIO()
    if stdin_text is not None:
        old_stdin = sys.stdin
        # A binary buffer underneath, as on a real stdin, which the CLI reads.
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    finally:
        if stdin_text is not None:
            sys.stdin = old_stdin
    return code, buffer.getvalue()


def large_redundant_ops():
    """Kraus operators of a unitary conjugation, scaled by 2e4."""
    u = [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]
    return [[[[x * w * 2e4 for x in z] for z in row] for row in u] for w in (0.5, 0.5, sqrt(0.5))]


def write_doc(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(
        json.dumps({"schema_version": "1", "kind": kind, "payload": payload}),
        encoding="utf-8",
    )
    return str(path)


class TestGoldenFiles:
    @pytest.mark.parametrize("expected_name,argv", GOLDEN_CASES)
    def test_byte_equality(self, expected_name, argv):
        expected = (GOLDEN / "expected" / expected_name).read_text(encoding="utf-8")
        code, out = run_case(argv)
        assert code == 0
        assert out == expected


class TestConvert:
    def test_bloch_to_density_values(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0, 0, 1]})
        code, out = run_cli(["convert", "--to", "density", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "density"
        assert doc["payload"]["matrix"] == [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

    def test_unitary_to_rotation_values(self):
        code, out = run_case(["convert", "--to", "rotation", "unitary_quarter_z.json"])
        assert code == 0
        m = json.loads(out)["payload"]["matrix"]
        expected = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        for i in range(3):
            for j in range(3):
                assert abs(m[i][j] - expected[i][j]) <= 1e-12

    def test_unitary_within_tolerance_converts_to_a_rotation(self, tmp_path):
        # (1 + 4e-10) I: U* U misses I by 8e-10, inside Unitary2's 1e-9, and
        # its rotation is the identity, not "not orthogonal".
        doc = {"matrix": [[[1.0000000004, 0], [0, 0]], [[0, 0], [1.0000000004, 0]]]}
        path = write_doc(tmp_path, "u.json", "unitary", doc)
        code, out = run_cli(["convert", "--to", "rotation", path])
        assert code == 0
        assert json.loads(out)["payload"]["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert run_cli(["verify", "double-cover", path])[0] == 0

    def test_axis_angle_to_unitary_values(self):
        code, out = run_case(["convert", "--to", "unitary", "axis_angle_half_x.json"])
        assert code == 0
        m = json.loads(out)["payload"]["matrix"]
        # -i sigma_x up to a cos(pi/2) remnant on the diagonal.
        assert abs(m[0][0][0]) <= 1e-12 and abs(m[0][0][1]) <= 1e-12
        assert abs(m[0][1][0]) <= 1e-12 and abs(m[0][1][1] + 1.0) <= 1e-12
        assert abs(m[1][0][1] + 1.0) <= 1e-12

    def test_density_round_trip(self, tmp_path):
        path = write_doc(
            tmp_path,
            "in.json",
            "density",
            {"matrix": [[[0.75, 0], [0.1, -0.2]], [[0.1, 0.2], [0.25, 0]]]},
        )
        code, out = run_cli(["convert", "--to", "bloch", path])
        assert code == 0
        # rho01 = (x1 - i x2) / 2, so 0.1 - 0.2i encodes x = (0.2, 0.4, 0.5).
        vec = json.loads(out)["payload"]["vector"]
        assert abs(vec[0] - 0.2) <= 1e-12
        assert abs(vec[1] - 0.4) <= 1e-12
        assert abs(vec[2] - 0.5) <= 1e-12

    def test_kraus_choi_round_trip(self, tmp_path):
        ops = [
            [[[sqrt(0.5), 0], [0, 0]], [[0, 0], [sqrt(0.5), 0]]],
            [[[0, 0], [sqrt(0.5), 0]], [[sqrt(0.5), 0], [0, 0]]],
        ]
        path = write_doc(tmp_path, "in.json", "kraus", {"operators": ops})
        code, out = run_cli(["convert", "--to", "choi", path])
        assert code == 0
        choi_doc = json.loads(out)
        path2 = tmp_path / "choi.json"
        path2.write_text(out, encoding="utf-8")
        code, out2 = run_cli(["convert", "--to", "kraus", str(path2)])
        assert code == 0
        path3 = tmp_path / "back.json"
        path3.write_text(out2, encoding="utf-8")
        code, out3 = run_cli(["convert", "--to", "choi", str(path3)])
        assert code == 0
        a = json.loads(out)["payload"]["matrix"]
        b = json.loads(out3)["payload"]["matrix"]
        for i in range(4):
            for j in range(4):
                assert abs(a[i][j][0] - b[i][j][0]) <= 1e-10
                assert abs(a[i][j][1] - b[i][j][1]) <= 1e-10

    def test_reads_stdin(self):
        doc = json.dumps(
            {"schema_version": "1", "kind": "bloch", "payload": {"vector": [1, 0, 0]}}
        )
        code, out = run_cli(["convert", "--to", "density", "-"], stdin_text=doc)
        assert code == 0
        assert json.loads(out)["payload"]["matrix"][0][1] == [0.5, 0]

    def test_unsupported_conversion_exits_3(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0, 0, 1]})
        code, out = run_cli(["convert", "--to", "unitary", path])
        assert code == 3
        assert json.loads(out)["error"]["code"] == "unsupported_conversion"

    def test_same_kind_is_identity(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0.1, 0.2, 0.3]})
        code, out = run_cli(["convert", "--to", "bloch", path])
        assert code == 0
        assert json.loads(out)["payload"]["vector"] == [0.1, 0.2, 0.3]


class TestMalformedInput:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out = run_cli(["convert", "--to", "density", str(path)])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed_input"

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            json.dumps({"schema_version": "1", "kind": "qutrit", "payload": {}}),
            encoding="utf-8",
        )
        code, out = run_cli(["convert", "--to", "density", str(path)])
        assert code == 2

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            json.dumps({"schema_version": "9", "kind": "bloch", "payload": {"vector": [0, 0, 1]}}),
            encoding="utf-8",
        )
        code, _ = run_cli(["convert", "--to", "density", str(path)])
        assert code == 2

    def test_domain_violation(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [2, 0, 0]})
        code, out = run_cli(["convert", "--to", "density", path])
        assert code == 2
        assert "error" in json.loads(out)

    def test_missing_file(self):
        code, out = run_cli(["classify", "/nonexistent/input.json"])
        assert code == 2

    def test_classify_rejects_non_kraus(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0, 0, 1]})
        code, _ = run_cli(["classify", path])
        assert code == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rotation_entry(self, tmp_path, token):
        # json.loads reads these tokens as floats; the decoder checks the
        # nine entries finite once, before the orthogonality check.
        path = tmp_path / "rot.json"
        path.write_text(
            '{"schema_version": "1", "kind": "rotation", "payload": {"matrix": '
            f"[[1, 0, 0], [0, {token}, 0], [0, 0, 1]]}}}}",
            encoding="utf-8",
        )
        code, out = run_cli(["convert", "--to", "unitary", str(path)])
        assert code == 2
        assert json.loads(out, parse_constant=pytest.fail)["error"] == {
            "code": "malformed_input",
            "detail": "invalid rotation document: rotation entries must be finite",
        }

    @pytest.mark.parametrize(
        "kind, payload, target, detail",
        [
            ("choi", {"matrix": [[0] * 4] * 4}, "kraus", "Choi matrix is zero"),
            # Finite entries whose eigenvalues overflow when scaled back.
            (
                "choi",
                {"matrix": [[8e307] * 4] * 4},
                "kraus",
                "invalid choi document: matrix entries must be finite",
            ),
            ("unitary", {"matrix": [[1, 0], [0, 1], [0, 0]]}, "rotation", "matrix: expected 2 rows"),
            ("rotation", {"matrix": [[1, 0, 0], [0, 1, 0]]}, "unitary", "rotation matrix must have 3 rows"),
        ],
        ids=["zero-choi", "overflowing-choi", "unitary-rows", "rotation-rows"],
    )
    def test_rejected_document(self, tmp_path, kind, payload, target, detail):
        path = write_doc(tmp_path, "doc.json", kind, payload)
        code, out = run_cli(["convert", "--to", target, path])
        assert code == 2
        assert json.loads(out)["error"] == {"code": "malformed_input", "detail": detail}

    def expect_malformed(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed_input"

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + (GOLDEN / "inputs" / "kraus_identity.json").read_bytes())
        self.expect_malformed(["classify", str(path)])

    def test_non_utf8_stdin(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        self.expect_malformed(["classify", "-"])

    CLOSED_STDIN = '{"error":{"code":"malformed_input","detail":"cannot read -: stdin is closed"}}\n'

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--to", "density"], ["classify"], ["bloch-action", "-"], ["verify", "double-cover", "-"]],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdin(self, monkeypatch, argv):
        # Python sets sys.stdin to None when the process starts with fd 0 closed.
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(argv) == (2, self.CLOSED_STDIN)

    def test_closed_stdin_in_a_fresh_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m blochiso.cli classify 0<&-', sys.executable],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, self.CLOSED_STDIN, "")

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b'{"schema_version":"1","kind":"\xff"}', b"\xef\xbb\xbf{}"],
        ids=["bom16", "in-string", "bom8"],
    )
    def test_stdin_reads_like_a_file(self, tmp_path, monkeypatch, data):
        # The same bytes give the same error whatever the locale's stdin
        # error handler (surrogateescape under the C locale).
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        from_file = run_cli(["classify", str(path)])
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        from_stdin = run_cli(["classify", "-"])
        assert from_stdin[0] == from_file[0] == 2
        detail = json.loads(from_stdin[1])["error"]["detail"]
        assert detail == json.loads(from_file[1])["error"]["detail"].replace(str(path), "-")

    @pytest.mark.parametrize(
        "text",
        [
            # Integers past the float range, where float() overflows.
            '{"schema_version": "1", "kind": "bloch", "payload": {"vector": [1%s, 0, 0]}}'
            % ("0" * 400),
            '{"schema_version": "1", "kind": "axis_angle", "payload": {"axis": [0, 0, 1], "angle": 1%s}}'
            % ("0" * 400),
            '{"schema_version": "1", "kind": "unitary", "payload": {"matrix": [[1%s, 0], [0, 1]]}}'
            % ("0" * 400),
            # An integer past int's digit limit, and nesting past the recursion limit.
            "[1%s]" % ("0" * 5000),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["bloch", "axis_angle", "unitary", "digits", "depth"],
    )
    def test_unrepresentable_json(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        self.expect_malformed(["convert", "--to", "rotation", str(path)])


class TestClassify:
    def test_identity_report(self):
        code, out = run_case(["classify", "kraus_identity.json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["cptp"] is True
        assert doc["choi_rank"] == 1
        assert doc["kind"] == "UnitaryConjugation"
        assert doc["unitary"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        assert doc["inverse"]["operators"] == [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]

    @pytest.mark.parametrize("tol", ["1", "2"])
    def test_identity_at_loose_tolerance(self, tol):
        code, out = run_case(["classify", "kraus_identity.json", "--tol", tol])
        assert code == 0
        assert json.loads(out)["kind"] == "UnitaryConjugation"

    def test_depolarizing_report(self):
        code, out = run_case(["classify", "kraus_depolarizing_half.json"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"cptp": True, "choi_rank": 4, "kind": "CptpNotInvertible"}

    def test_scaled_identity_report(self):
        code, out = run_case(["classify", "kraus_scaled_identity.json"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"cptp": False, "kind": "NotCptp"}

    def test_large_redundant_set_is_not_cptp(self, tmp_path):
        # A redundant unitary set scaled by 2e4: its Choi matrix is ~1e9 in
        # size, far past trace preservation.
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": large_redundant_ops()})
        code, out = run_cli(["classify", path])
        assert code == 0
        assert out == '{"cptp":false,"kind":"NotCptp"}\n'

    def test_invalid_choi_exits_2(self, tmp_path):
        # At this tolerance 1.2e154 I passes the trace-preservation check;
        # its Choi entries, 1.44e308, are finite, but twice them is not.
        big = [[[[1.2e154, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.2e154, 0.0]]]]
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": big})
        code, out = run_cli(["classify", path, "--tol", "1.7e308"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "malformed_input",
            "detail": "matrix entries must be finite",
        }

    def test_roundoff_choi_eigenvalue_is_not_a_verdict(self, tmp_path):
        # TP deviation 3.1e-17, least Choi eigenvalue -1.57e-16: below the
        # tolerance, but a Kraus set is completely positive by construction.
        path = write_doc(tmp_path, "k.json", "kraus", {"operators": ROUNDOFF_UNITARY_OPS})
        code, out = run_cli(["classify", "--tol", "1e-16", path])
        assert code == 0
        assert out.startswith('{"cptp":true,"choi_rank":1,"kind":"UnitaryConjugation"')
        code, out = run_cli(["bloch-action", "--tol", "1e-16", path])
        assert code == 0
        assert set(json.loads(out)) == {"M", "t", "isometry"}

    def test_large_redundant_set_at_a_loose_tolerance(self, tmp_path):
        # At this tolerance the scaled set passes the trace-preservation
        # check. Its least Choi eigenvalue, a roundoff of -1.3e-8 against 8e8,
        # once failed the absolute positivity check (exit 2).
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": large_redundant_ops()})
        code, out = run_cli(["classify", path, "--tol", "1e12"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["choi_rank"], doc["kind"]) == (1, "UnitaryConjugation")


    @pytest.mark.parametrize("tol", ["2", "1e308"])
    def test_singular_rank_one_set_past_the_tolerance_range(self, tmp_path, tol):
        # The set passes trace preservation at these tolerances, and
        # delta(tol) >= 3/4 exceeds every purity deficit: a rank-one Choi
        # matrix is read as a unitary conjugation, and M / (Tr J / 2) =
        # diag(0, 0, 1) lifts to I. README gives the meaningful --tol range.
        ops = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]
        path = write_doc(tmp_path, "singular.json", "kraus", {"operators": ops})
        code, out = run_cli(["classify", path, "--tol", tol])
        assert code == 0
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        assert json.loads(out) == {
            "cptp": True,
            "choi_rank": 1,
            "kind": "UnitaryConjugation",
            "unitary": identity,
            "inverse": {"operators": [identity]},
        }


def scaled_identity_choi(s):
    """s vec(I) vec(I)*: the Choi matrix of the identity channel times s."""
    return [[[s if r in (0, 3) and c in (0, 3) else 0.0, 0.0] for c in range(4)] for r in range(4)]


class TestChannelsAtEveryScale:
    """Choi entries above about 1e154 once overflowed the eigensolver's sum of
    squares, which then returned the unrotated diagonal as the spectrum."""

    def test_huge_identity_is_a_unitary_conjugation(self, tmp_path):
        op = [[[1e153, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e153, 0.0]]]
        path = write_doc(tmp_path, "k.json", "kraus", {"operators": [op]})
        code, out = run_cli(["classify", "--tol", "1e308", path])
        assert code == 0
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        assert json.loads(out) == {
            "cptp": True,
            "choi_rank": 1,
            "kind": "UnitaryConjugation",
            "unitary": identity,
            "inverse": {"operators": [identity]},
        }

    @pytest.mark.parametrize("s", [1e150, 1e154])
    def test_huge_identity_choi_has_one_operator(self, tmp_path, s):
        path = write_doc(tmp_path, "c.json", "choi", {"matrix": scaled_identity_choi(s)})
        code, out = run_cli(["convert", "--to", "kraus", path])
        assert code == 0
        (op,) = json.loads(out)["payload"]["operators"]
        root = sqrt(s)
        assert abs(op[0][0][0] - root) <= 1e-15 * root
        assert abs(op[1][1][0] - root) <= 1e-15 * root
        assert op[0][1] == op[1][0] == [0, 0]

    @pytest.mark.parametrize("command", ["classify", "bloch-action"])
    @pytest.mark.parametrize(
        "ops",
        [
            [[[[0, 0], [1e154, 0]], [[0, 0], [0, 0]]], [[[1.3e154, 1.3e154], [0, 0]], [[0, 0], [0, 0]]]],
            [[[[1.15e154, 0], [1.15e154, 1.15e154]], [[0, 0], [0, 0]]]],
            # sum A* A = 1.69e308 I is finite, but Tr J, twice its trace, is
            # not. Before the trace gate read chi, classify printed NotCptp
            # and bloch-action refused the set as not CPTP.
            [[[[1.3e154, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1.3e154, 0]]]],
        ],
        ids=["pair", "wide", "trace-past-the-range"],
    )
    def test_trace_gate_past_the_float_range_exits_2(self, tmp_path, command, ops):
        # A fresh process, so that a traceback on stderr would show.
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": ops})
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "blochiso.cli", command, path],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout, parse_constant=pytest.fail)["error"] == {
            "code": "malformed_input",
            "detail": "matrix entries must be finite",
        }


# SHA-256 of `blochiso verify <mode> --samples 1000 --seed 42` stdout.
SEEDED_DIGESTS = {
    "diagram": "ca23a788d3b973e31460859d3176e5e90f8c6e793fada380473b21b08b7e9781",
    "double-cover": "a76b531a1bad4caab4283a5e84e5e615d75d7b54b5e058bbae7e5385042dc12c",
    "group": "d3628f0f7fafd17273e711218a6f2ae4a588be58a9360132156fdd8d864f3bcc",
    "inverse-pair": "0b3ba133ebbe9e59bbf684146914d2fd1f7838add80297d27e8ab610459dc202",
}


class TestVerify:
    def test_diagram_passes(self):
        code, out = run_cli(["verify", "diagram", "--samples", "50", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_deviation"] <= 1e-10
        assert len(doc["cases"]) == 50

    def test_double_cover_is_exact(self):
        code, out = run_cli(["verify", "double-cover", "--samples", "25"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_deviation"] == 0.0

    def test_group_passes(self):
        code, out = run_cli(["verify", "group", "--samples", "25"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_group_word_of_near_unit_axes_passes(self, tmp_path):
        # A valid document: the axis norm is within the 1e-12 AxisAngle
        # allows. A word of 1000 of them once exited 2, "matrix is not
        # unitary", when a partial product of the word was checked.
        axis = {"axis": [0, 0, 1.0000000000009], "angle": 2.5}
        path = write_doc(tmp_path, "near_unit.json", "axis_angle", axis)
        code, out = run_cli(["verify", "group"] + [path] * 1000)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["cases"][0]["word_length"] == 1000
        assert doc["max_deviation"] < 1e-12

    def test_inverse_pair_sampled(self):
        code, out = run_cli(["verify", "inverse-pair", "--samples", "10"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_inverse_pair_documents_pass(self, tmp_path):
        c = 0.7071067811865476
        s = 0.7071067811865475
        fwd = write_doc(
            tmp_path, "fwd.json", "kraus",
            {"operators": [[[[c, -s], [0, 0]], [[0, 0], [c, s]]]]},
        )
        inv = write_doc(
            tmp_path, "inv.json", "kraus",
            {"operators": [[[[c, s], [0, 0]], [[0, 0], [c, -s]]]]},
        )
        code, out = run_cli(["verify", "inverse-pair", fwd, inv])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert abs(doc["cases"][0]["alpha_square_sum"] - 1.0) <= 1e-10

    def test_inverse_pair_mismatch_exits_1(self, tmp_path):
        c = 0.7071067811865476
        s = 0.7071067811865475
        fwd = write_doc(
            tmp_path, "fwd.json", "kraus",
            {"operators": [[[[c, -s], [0, 0]], [[0, 0], [c, s]]]]},
        )
        inv = write_doc(
            tmp_path, "inv.json", "kraus",
            {"operators": [[[[c, 0], [0, s]], [[0, s], [c, 0]]]]},
        )
        code, out = run_cli(["verify", "inverse-pair", fwd, inv])
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["cases"][0]["alpha"]  # diagnostics present

    def test_inverse_pair_with_no_weight_exits_1(self, tmp_path):
        # Orthogonal rank-one operators: every product is zero, so the
        # composite's F_e is 0 / 0, once a ZeroDivisionError traceback.
        fwd = write_doc(
            tmp_path, "fwd.json", "kraus", {"operators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}
        )
        inv = write_doc(
            tmp_path, "inv.json", "kraus", {"operators": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        )
        code, out = run_cli(["verify", "inverse-pair", fwd, inv])
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        (case,) = doc["cases"]
        assert case["infidelity"] == case["tp_deviation"] == doc["max_deviation"] == 1.0

    def test_inverse_pair_prints_the_trace_deviation_it_fails_on(self, tmp_path):
        # Only the composite's trace preservation, off by 1e-6, fails this
        # pair; the case's deviation shows it, above tol.
        fwd = write_doc(
            tmp_path, "fwd.json", "kraus", {"operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        )
        diag = [[[sqrt(1 + 1e-6), 0], [0, 0]], [[0, 0], [sqrt(1 - 1e-6), 0]]]
        inv = write_doc(tmp_path, "inv.json", "kraus", {"operators": [diag]})
        code, out = run_cli(["verify", "inverse-pair", fwd, inv])
        assert code == 1
        doc = json.loads(out)
        (case,) = doc["cases"]
        assert case["pass"] is False
        assert case["infidelity"] <= 1e-12
        assert abs(case["tp_deviation"] - 1e-6) <= 1e-15
        assert doc["max_deviation"] == case["tp_deviation"] > doc["tol"]

    def test_inverse_pair_tol_too_tight_exits_2(self):
        # At --tol 0 the sampled channels' roundoff fails trace preservation,
        # so no inverse can be built.
        code, out = run_cli(["verify", "inverse-pair", "--samples", "1", "--tol", "0"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed_input"

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_inverse_pair_overflow_exits_2(self, tmp_path, scale):
        # At 1e150 alpha_square_sum overflows to inf; at 1e160 the products do.
        ops = [[[[0.6 * scale, 0], [0, 0]], [[0, 0], [0.6 * scale, 0]]]]
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": ops})
        code, out = run_cli(["verify", "inverse-pair", path, path])
        assert code == 2
        assert json.loads(out, parse_constant=pytest.fail)["error"]["code"] == "malformed_input"

    def test_inverse_pair_modulus_overflow_exits_2(self, tmp_path):
        # A residual's parts are finite, but its modulus is past the float
        # range: the pair pass raises DomainError, as for a non-finite entry
        # (abs() raised a bare OverflowError, once printed as a traceback).
        ops = [[[[0, 0], [1e154, 0]], [[0, 0], [0, 0]]], [[[1.3e154, 1.3e154], [0, 0]], [[0, 0], [0, 0]]]]
        path = write_doc(tmp_path, "big.json", "kraus", {"operators": ops})
        code, out = run_cli(["verify", "inverse-pair", path, path])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "malformed_input",
            "detail": "matrix entries must be finite",
        }

    def test_seeded_determinism(self):
        argv = ["verify", "diagram", "--samples", "25", "--seed", "11"]
        assert run_cli(argv) == run_cli(argv)

    def test_different_seed_different_bytes(self):
        _, a = run_cli(["verify", "diagram", "--samples", "25", "--seed", "11"])
        _, b = run_cli(["verify", "diagram", "--samples", "25", "--seed", "12"])
        assert a != b

    @pytest.mark.parametrize("mode", SEEDED_DIGESTS)
    def test_seeded_report_bytes(self, mode):
        code, out = run_cli(["verify", mode, "--samples", "1000", "--seed", "42"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SEEDED_DIGESTS[mode]


class TestArguments:
    """Bad flag values exit 2 with a JSON error on stdout, never a bare token."""

    KRAUS = str(GOLDEN / "inputs" / "kraus_identity.json")
    COMMANDS = [
        ["convert", "--to", "density", str(GOLDEN / "inputs" / "bloch_north.json")],
        ["classify", KRAUS],
        ["bloch-action", KRAUS],
        ["verify", "diagram", "--samples", "3"],
    ]

    BAD_TOLS = ["nan", "inf", "-inf", "-1e-9"]
    MODES = ["diagram", "double-cover", "group", "inverse-pair"]
    NO_SAMPLES = ["0", "-3"]
    USAGE_ERRORS = {
        "command": ["frobnicate"],
        "no-command": [],
        "bare-tol": ["classify", "--tol", "-1e-9", KRAUS],
        "trailing-input": ["classify", KRAUS, KRAUS],
        "no-to": ["convert", KRAUS],
        "samples": ["verify", "diagram", "--samples", "x"],
        "after-format": ["classify", "--format", "text", "--bogus", KRAUS],
        "verify-bogus": ["verify", "group", "--seed", "3", "--bogus", "x"],
    }
    OPTIONS_AROUND = [
        (["--seed", "3"], []),
        (["--samples", "2", "--format", "text"], []),
        (["--seed", "3"], ["--samples", "2"]),
    ]

    def expect_rejected(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        doc = json.loads(out, parse_constant=pytest.fail)
        assert doc["error"]["code"] == "malformed_input"

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_bad_tol(self, argv, tol):
        # The "=" form, since argparse reads "-inf" alone as an option.
        self.expect_rejected(argv + [f"--tol={tol}"])

    @pytest.mark.parametrize("samples", NO_SAMPLES)
    @pytest.mark.parametrize("mode", MODES)
    def test_no_samples(self, mode, samples):
        self.expect_rejected(["verify", mode, "--samples", samples])

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_usage_error(self, argv, capsys):
        # Before the command line parses, --format is unknown: the error is JSON.
        self.expect_rejected(argv)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", list(USAGE_ERROR_STDOUT), ids=" ".join)
    def test_usage_error_bytes(self, argv):
        # CI compares the installed console script's stdout with these bytes.
        assert run_cli(list(argv)) == (2, USAGE_ERROR_STDOUT[argv].decode())

    def test_help_is_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: blochiso classify")

    def test_zero_tol_is_accepted(self):
        code, out = run_cli(["verify", "double-cover", "--samples", "3", "--tol", "0"])
        assert code == 0
        assert json.loads(out)["tol"] == 0

    @pytest.mark.parametrize("before,after", OPTIONS_AROUND, ids=["seed", "text", "between"])
    def test_documents_after_options(self, before, after):
        unitary = str(GOLDEN / "inputs" / "unitary_quarter_z.json")
        first = run_cli(["verify", "double-cover", unitary, *before, *after])
        second = run_cli(["verify", "double-cover", *before, unitary, *after])
        assert first == second
        assert first[0] == 0
        if "text" not in before:
            assert json.loads(first[1])["samples"] == 1

    def test_documents_around_options_keep_their_order(self):
        pair = [str(GOLDEN / "inputs" / name) for name in ("kraus_identity.json", "kraus_depolarizing_half.json")]
        split = run_cli(["verify", "inverse-pair", pair[0], "--seed", "3", pair[1]])
        assert split == run_cli(["verify", "inverse-pair", *pair, "--seed", "3"])
        assert split != run_cli(["verify", "inverse-pair", *pair[::-1], "--seed", "3"])

    def test_stdin_document_after_options(self):
        doc = (GOLDEN / "inputs" / "unitary_quarter_z.json").read_text(encoding="utf-8")
        code, out = run_cli(["verify", "double-cover", "--seed", "3", "-"], stdin_text=doc)
        assert code == 0
        assert json.loads(out)["samples"] == 1

    def test_samples_unused_with_documents(self, tmp_path):
        path = write_doc(tmp_path, "aa.json", "axis_angle", {"axis": [0, 0, 1], "angle": 1.0})
        code, out = run_cli(["verify", "group", path, "--samples", "0"])
        assert code == 0
        assert json.loads(out)["samples"] == 1


def _parse_corpus():
    a = TestArguments
    k, b = a.KRAUS, str(GOLDEN / "inputs" / "bloch_north.json")
    u = str(GOLDEN / "inputs" / "unitary_quarter_z.json")
    k2 = str(GOLDEN / "inputs" / "kraus_depolarizing_half.json")
    corpus = [
        ["-h"],
        ["--help"],
        ["classify", "-h"],
        ["classify", "--help"],
        ["class", k],
        ["--tol", "1", "classify", k],
        ["classify", "--", k],
        ["convert", "--t", "density", b],  # ambiguous: --to or --tol
        ["classify", "--form", "text", k],  # an abbreviation
        ["convert", "--to=density", b],
        ["convert", "--to", "density", "--", b],
        ["verify", "group", "--samples", "2", "--", "x"],
        ["verify", "double-cover", "--samples", "3", "--tol", "0"],
        ["verify", "inverse-pair", k, "--seed", "3", k2],
        ["verify", "inverse-pair", k, k2, "--seed", "3"],
        ["verify", "inverse-pair", k2, k, "--seed", "3"],
        ["verify", "double-cover", "--seed", "3", "-"],
        ["verify", "group", u, "--samples", "0"],
        ["verify", "group", "--seed", "3", u, "--samples", "2", u],
        ["-1"],
        ["-x y"],
        ["verify", "frob"],
        ["convert", "--to", "frob", b],
        ["classify", "--format", "frob", k],
    ]
    corpus += [argv + [f"--tol={tol}"] for argv in a.COMMANDS for tol in a.BAD_TOLS]
    corpus += [["verify", mode, "--samples", n] for mode in a.MODES for n in a.NO_SAMPLES]
    corpus += a.USAGE_ERRORS.values()
    for before, after in a.OPTIONS_AROUND:
        corpus.append(["verify", "double-cover", u, *before, *after])
        corpus.append(["verify", "double-cover", *before, u, *after])
    return corpus


def _nested_parse(argv):
    """The parse ``_parse`` replaced: the top-level parser matches the
    subcommand and runs its parser, then the same leftovers rule."""
    args, extra = cli._build_parser()[0].parse_known_args(argv)
    if extra:
        cut = extra.index("--") if "--" in extra else len(extra)
        head, tail = extra[:cut], extra[cut + 1 :]
        if args.command == "verify" and not any(t.startswith("-") and t != "-" for t in head):
            args.inputs = [*args.inputs, *head, *tail]
        elif head or tail:
            raise CliError(2, "malformed_input", "unrecognized arguments: " + " ".join(head or tail))
    return args


def _parse_outcome(parse, argv, capsys):
    try:
        # Bitwise, so that a NaN --tol equals itself.
        result = ("parsed", fingerprint(list(vars(parse(argv)).items())))
    except CliError as exc:
        result = ("CliError", exc.exit_code, exc.payload)
    except SystemExit as exc:
        result = ("SystemExit", exc.code)
    return result, capsys.readouterr()


def _document_lines():
    """Command lines of a document subcommand: option names exact,
    abbreviated and in the ``=`` form, each exact one mostly followed by a
    value of its own, good or bad; the tokens argparse reads apart; and
    files."""
    golden = GOLDEN / "inputs"
    files = [str(golden / name) for name in ("kraus_identity.json", "bloch_north.json")] + ["x.json"]
    values = {
        "--tol": ["1e-3", "0", "nan", "1e309", " 2 ", "-1", "-1e-9", "x"],
        "--format": ["json", "text", "frob", "-"],
        "--to": ["density", "rotation", "frob", ""],
    }
    options = [*values, "--t", "--form", "--tol=1e-3", "--format=text", "--to=density"]
    tokens = options + [v for vs in values.values() for v in vs] + ["-", "--", "-h", "", "x y", "-x y"]
    piece = st.one_of(
        *(st.tuples(st.just(name), st.sampled_from(vs)) for name, vs in values.items()),
        st.tuples(st.sampled_from(files)),
        st.tuples(st.sampled_from(tokens)),
    )
    head = st.sampled_from([["convert"], ["convert", "--to", "rotation"], ["classify"], ["bloch-action"]])
    return st.builds(lambda h, pieces: h + [t for p in pieces for t in p], head, st.lists(piece, max_size=3))


_DOCUMENT_LINES = _document_lines()


# The subcommands, listed as Python 3.10 to 3.13.0 list an invalid choice's
# options.
SUBCOMMANDS = "'convert', 'classify', 'verify', 'bloch-action'"
CHOICES = f"(choose from {SUBCOMMANDS})"


class TestParse:
    """``_parse`` runs the subcommand's parser alone, with the answers of the
    two-level parse: the same namespace, or the same error and output."""

    K = TestArguments.KRAUS
    B = str(GOLDEN / "inputs" / "bloch_north.json")
    D = str(GOLDEN / "inputs" / "axis_angle_half_x.json")

    @pytest.mark.parametrize(
        "argv", _parse_corpus(), ids=lambda argv: " ".join(Path(t).name for t in argv) or "empty"
    )
    def test_same_as_the_nested_parse(self, argv, capsys):
        direct = _parse_outcome(cli._parse, argv, capsys)
        assert direct == _parse_outcome(_nested_parse, argv, capsys)

    def test_a_named_subcommand_skips_the_top_level_parser(self, monkeypatch):
        top = cli._build_parser()[0]
        monkeypatch.setattr(top, "parse_known_args", mock.Mock(side_effect=AssertionError))
        assert cli._parse(["classify", TestArguments.KRAUS]).command == "classify"

    def test_a_second_dashdash_skips_the_top_level_parser(self, monkeypatch):
        # argparse on 3.13.13 would drop it and run classify.
        top = cli._build_parser()[0]
        monkeypatch.setattr(top, "parse_known_args", mock.Mock(side_effect=AssertionError))
        with pytest.raises(CliError):
            cli._parse(["--", "--", "classify", TestArguments.KRAUS])

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["frobnicate"], "frobnicate"),
            (["class", K], "class"),
            (["--", "frobnicate", "-h"], "frobnicate"),
            (["--", "--", "classify", K], "--"),
            ([""], ""),
            (["-", K], "-"),
            (["-1"], "-1"),
            (["-x y"], "-x y"),
            (["--tol", "1", "classify", K], "1"),
        ],
        ids=lambda t: " ".join(Path(a).name for a in t) or "empty" if isinstance(t, list) else None,
    )
    def test_an_unknown_subcommand_is_refused_in_one_text(self, argv, value):
        # Any first token argparse reads as the command's value, "--" included
        # (3.13.13 would drop it and run the rest), in 3.10-3.13.0's words.
        detail = f"argument command: invalid choice: {value!r} {CHOICES}"
        with pytest.raises(CliError) as exc:
            cli._parse(argv)
        assert (exc.value.exit_code, exc.value.payload["error"]) == (
            2,
            {"code": "malformed_input", "detail": detail},
        )

    @pytest.mark.parametrize("listed", [SUBCOMMANDS, SUBCOMMANDS.replace("'", "")])
    def test_an_invalid_choice_lists_its_options_quoted(self, listed):
        # Quoted up to 3.13.0, bare after it; the value may hold the marker.
        message = f"argument command: invalid choice: 'x (choose from y' (choose from {listed})"
        with pytest.raises(CliError) as exc:
            cli._build_parser()[1]["verify"].error(message)
        detail = f"argument command: invalid choice: 'x (choose from y' {CHOICES}"
        assert exc.value.payload["error"]["detail"] == detail

    @pytest.mark.parametrize(
        "argv, same",
        [
            (["--", "classify", K], ["classify", K]),
            (["classify", "--", K], ["classify", K]),
            (["classify", "--tol", "1e-3", K, "--"], ["classify", "--tol", "1e-3", K]),
            (["classify", K, "--", K], ["classify", K, K]),
            (["convert", "--to", "density", "--", B], ["convert", "--to", "density", B]),
            (["convert", "--to", "density", B, "--"], ["convert", "--to", "density", B]),
            (["--"], []),
            (["--", "--"], []),
            (["--", "-h"], ["-h"]),
            (["verify", "group", "--", D], ["verify", "group", D]),
            (["verify", "group", "--samples", "2", "--", D], ["verify", "group", D, "--samples", "2"]),
            (["verify", "group", "--seed", "3", "--", "x"], ["verify", "group", "x", "--seed", "3"]),
            (["verify", "group", "--samples", "2", D, "--", D], ["verify", "group", D, D, "--samples", "2"]),
            (["verify", "group", "--samples", "2", "-x", "--", D], ["verify", "group", "--samples", "2", "-x"]),
            (["verify", "--", "group", D], ["verify", "group", D]),
            (["verify", "--seed", "3", "--", "group", D], ["verify", "group", D, "--seed", "3"]),
        ],
        ids=lambda argv: " ".join(Path(t).name for t in argv) or "empty",
    )
    def test_dashdash_parses_as_the_line_without_it(self, argv, same, capsys):
        # A leading "--" is dropped; one after the subcommand ends its
        # options. Either way the "--" never shows in a usage error.
        assert _parse_outcome(cli._parse, argv, capsys) == _parse_outcome(cli._parse, same, capsys)

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["verify", "group", "--samples", "2", "--", "-weird"], ["-weird"]),
            (["verify", "group", "--samples", "2", "--", "--", D], ["--", D]),
            (["verify", "group", "--samples", "2", "--", D, "--seed", "4"], [D, "--seed", "4"]),
        ],
    )
    def test_tokens_after_dashdash_are_documents(self, argv, inputs):
        args = cli._parse(argv)
        assert (args.samples, args.seed, args.inputs) == (2, 42, inputs)

    @pytest.mark.parametrize(
        "argv",
        [
            # 3.10 to 3.13.0 dropped the second "--" here, and 3.13.13 kept it.
            ["verify", "group", "--", "--", D],
            ["verify", "--", "group", "--", D],
            ["verify", "--seed", "3", "--", "group", "--", D],
        ],
        ids=["after the mode", "before the mode", "after an option"],
    )
    def test_a_second_dashdash_after_verify_is_a_document(self, argv):
        args = cli._parse(argv)
        assert (args.mode, args.inputs) == ("group", ["--", self.D])

    def test_argparse_never_sees_the_dashdash_after_verify(self, monkeypatch):
        verify = cli._build_parser()[1]["verify"]
        seen = []
        parse = verify.parse_known_args

        def spy(args, namespace):
            seen.append(list(args))
            return parse(args, namespace)

        monkeypatch.setattr(verify, "parse_known_args", spy)
        args = cli._parse(["verify", "group", "--", "--", self.D])
        assert seen == [["group"]]
        assert args.inputs == ["--", self.D]

    def test_no_argv_reads_sys_argv(self, capsys):
        argv = ["verify", "group", "--seed", "3", TestArguments.KRAUS]
        with mock.patch.object(sys, "argv", ["blochiso", *argv]):
            direct = _parse_outcome(cli._parse, None, capsys)
        assert direct == _parse_outcome(_nested_parse, argv, capsys)
        assert direct[0][0] == "parsed"

    def test_the_direct_parse_agrees_with_argparse(self, capsys):
        accepted = []

        @settings(max_examples=1500, deadline=None, derandomize=True)
        @given(_DOCUMENT_LINES)
        def agree(argv):
            accepted.append(cli._direct_parse(argv) is not None)
            assert _parse_outcome(cli._parse, argv, capsys) == _parse_outcome(_nested_parse, argv, capsys)

        agree()
        # So that the fuzz exercises the direct parse: it accepted 262 of
        # the 1500 draws of Hypothesis 6.155, and argparse parsed the rest.
        assert sum(accepted) >= len(accepted) // 10

    def test_one_namespace_type(self):
        direct = cli._parse(["classify", self.K])
        assert type(direct) is type(cli._parse(["classify", "--tol=1e-3", self.K]))
        assert type(direct) is type(cli._parse(["verify", "group", "--samples", "2"]))

    def test_a_golden_line_builds_no_parser(self, monkeypatch):
        build = mock.Mock(side_effect=AssertionError)
        monkeypatch.setattr(cli, "_build_parser", build)
        for _ in range(2):
            for expected_name, argv in GOLDEN_CASES:
                expected = (GOLDEN / "expected" / expected_name).read_text(encoding="utf-8")
                assert run_case(argv) == (0, expected)
        assert build.call_count == 0


class TestBlochAction:
    def test_unitary_channel(self):
        code, out = run_cli(["bloch-action", str(GOLDEN / "inputs" / "kraus_identity.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["isometry"] is True
        assert doc["t"] == [0, 0, 0]

    def test_depolarizing(self):
        code, out = run_cli(
            ["bloch-action", str(GOLDEN / "inputs" / "kraus_depolarizing_half.json")]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["isometry"] is False
        for i in range(3):
            assert abs(doc["t"][i]) <= 1e-12
            for j in range(3):
                expected = 0.5 if i == j else 0.0
                assert abs(doc["M"][i][j] - expected) <= 1e-12

    def test_amplitude_damping(self, tmp_path):
        g = 0.3
        root = sqrt(1 - g)
        ops = [
            [[[1, 0], [0, 0]], [[0, 0], [root, 0]]],
            [[[0, 0], [sqrt(g), 0]], [[0, 0], [0, 0]]],
        ]
        path = write_doc(tmp_path, "ad.json", "kraus", {"operators": ops})
        code, out = run_cli(["bloch-action", path])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["t"][2] - g) <= 1e-12
        assert abs(doc["M"][0][0] - root) <= 1e-12
        assert abs(doc["M"][2][2] - (1 - g)) <= 1e-12

    def test_non_cptp_exits_2(self):
        code, _ = run_cli(
            ["bloch-action", str(GOLDEN / "inputs" / "kraus_scaled_identity.json")]
        )
        assert code == 2


class TestThinDispatcher:
    """The CLI adds serialization only; numbers come straight from the library."""

    def test_convert_matches_library(self):
        from blochiso.isomorphism import phi_inverse
        from blochiso.matrix import ComplexMatrix
        from blochiso.su2 import Unitary2

        doc = json.loads((GOLDEN / "inputs" / "unitary_quarter_z.json").read_text())
        raw = doc["payload"]["matrix"]
        u = Unitary2(
            ComplexMatrix(
                2, 2, tuple(complex(c[0], c[1]) for row in raw for c in row)
            )
        )
        direct = phi_inverse(u)
        _, out = run_case(["convert", "--to", "rotation", "unitary_quarter_z.json"])
        via_cli = json.loads(out)["payload"]["matrix"]
        for i in range(3):
            for j in range(3):
                assert via_cli[i][j] == direct.matrix[i][j]

    def test_classify_matches_library(self):
        from blochiso.channels import classify

        direct = classify(make_depolarizing(0.5))
        _, out = run_case(["classify", "kraus_depolarizing_half.json"])
        doc = json.loads(out)
        assert doc["choi_rank"] == direct.choi_rank
        assert doc["kind"] == direct.kind.value


def as_text(value):
    """A JSON scalar as the text report prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


class TestTextFormat:
    def test_convert_text(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0, 0, 1]})
        code, out = run_cli(["convert", "--to", "density", path, "--format", "text"])
        assert code == 0
        assert "kind: density" in out

    def test_classify_text(self):
        code, out = run_cli(
            ["classify", str(GOLDEN / "inputs" / "kraus_identity.json"), "--format", "text"]
        )
        assert code == 0
        assert "kind: UnitaryConjugation" in out

    @pytest.mark.parametrize("mode", ["group", "inverse-pair"])
    def test_verify_cases_render_as_blocks(self, mode):
        argv = ["verify", mode, "--samples", "2", "--seed", "7"]
        report = json.loads(run_cli(argv)[1])
        code, out = run_cli([*argv, "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        expected = []
        for case in report["cases"]:
            block = []
            for key, value in case.items():
                if key == "alpha":
                    block.append("alpha:")
                    for row in value:
                        pairs = ", ".join(f"[{as_text(re)}, {as_text(im)}]" for re, im in row)
                        block.append(f"  [{pairs}]")
                else:
                    block.append(f"{key}: {as_text(value)}")
            expected += [f"  - {block[0]}"] + [f"    {line}" for line in block[1:]]
        assert lines[lines.index("cases:") + 1 :] == expected
        assert "True" not in out and "{" not in out

    def test_text_is_deterministic(self, tmp_path):
        path = write_doc(tmp_path, "in.json", "bloch", {"vector": [0.1, 0.2, 0.3]})
        argv = ["convert", "--to", "density", path, "--format", "text"]
        assert run_cli(argv) == run_cli(argv)


class TestSharedParser:
    """One parser serves every ``main`` call of a process, and keeps no state."""

    KRAUS = str(GOLDEN / "inputs" / "kraus_identity.json")
    UNITARY = str(GOLDEN / "inputs" / "unitary_quarter_z.json")

    def test_not_built_at_import(self):
        # A fresh process counts the parsers that ``import blochiso.cli`` builds.
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import blochiso.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout == "0\n"

    def test_built_once(self, monkeypatch):
        # Warmed by a line argparse parses: a golden line builds no parser.
        run_cli(["verify", "group", "--samples", "2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _, argv in GOLDEN_CASES:
            assert run_case(argv)[0] == 0
        assert run_cli(["verify", "group", "--samples", "2"])[0] == 0
        assert run_cli(["verify", "double-cover", "--seed", "3", self.UNITARY])[0] == 0
        assert run_cli(["frobnicate"])[0] == 2
        assert run_cli(["classify", "--tol=nan", self.KRAUS])[0] == 2
        assert built == []

    @pytest.mark.parametrize(
        "first",
        [
            ["classify", "--tol", "1e-3", "--format", "text", KRAUS],
            ["verify", "group", "--samples", "2", "--seed", "5", "--tol", "1e-3", "--format", "text"],
            ["frobnicate"],
            ["classify", "--tol", "-1e-9", KRAUS],
            ["verify", "double-cover", "--seed", "3", KRAUS],
            ["convert", "--format", "text", KRAUS],
        ],
        ids=["text", "verify-text", "command", "bare-tol", "trailing-input", "no-to"],
    )
    def test_nothing_leaks_between_calls(self, first):
        run_cli(first)
        for expected_name, argv in GOLDEN_CASES:
            expected = (GOLDEN / "expected" / expected_name).read_text(encoding="utf-8")
            assert run_case(argv) == (0, expected)
        code, out = run_cli(["verify", "double-cover", "--samples", "1"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["samples"], doc["seed"], doc["tol"]) == (1, 42, 1e-9)


# ----------------------------------------------------------------------
# The CLI contract under generated input: any document and any flag value
# give an exit code in {0, 1, 2, 3} and one JSON value on stdout, with no
# NaN or Infinity token and no exception.

NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(),  # NaN and the infinities too: json.dumps writes them, json.loads reads them
    st.sampled_from([1e200, -1e200, 1e154, 1e-200, 0.0, -0.0]),
    st.integers(-3, 3),
    st.integers(10**308, 10**310),
)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
ENTRIES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2), JUNK)
# Scale factors for valid values: exact, a roundoff away, and past overflow
# once squared or multiplied.
FACTORS = st.sampled_from([1.0, 1.0 + 1e-12, -1.0, 2e4, 1e154, 1e200])


def shaped(rows, cols, entries):
    """Nested lists of ``rows`` x ``cols`` entries, or rows of another length."""
    rows_of = lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=rows, max_size=rows)
    return rows_of(cols) | st.integers(0, 5).flatmap(rows_of)


def scaled_pairs(m, factor):
    return [[[m.at(i, j).real * factor, m.at(i, j).imag * factor] for j in range(m.cols)] for i in range(m.rows)]


@st.composite
def sampled_payload(draw, kind):
    """The payload of a valid value of ``kind``, scaled by one of FACTORS."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    factor = draw(FACTORS)
    if kind in ("kraus", "choi"):
        k = sampling.redundant_unitary_kraus(rng, draw(st.integers(1, 3)))[0]
        if kind == "choi":
            return {"matrix": scaled_pairs(channels.choi_of(k).matrix, factor)}
        return {"operators": [scaled_pairs(op, factor) for op in k.operators]}
    if kind == "unitary":
        return {"matrix": scaled_pairs(sampling.su2_haar(rng).matrix, factor)}
    if kind in ("bloch", "density"):
        r = sampling.bloch_in_ball(rng)
        if kind == "density":
            return {"matrix": scaled_pairs(bloch_to_density(r).matrix, factor)}
        return {"vector": [x * factor for x in r.as_tuple()]}
    aa = sampling.axis_angle(rng)
    if kind == "axis_angle":
        return {"axis": [x * factor for x in aa.axis], "angle": aa.angle * factor}
    return {"matrix": [[x * factor for x in row] for row in so3.rotation_from_axis_angle(aa).matrix]}


def generated_payload(kind):
    """A payload of ``kind`` with arbitrary entries, mostly of the right shape."""
    vector = shaped(1, 3, NUMBERS).map(lambda rows: rows[0])
    fields = {
        "bloch": {"vector": vector},
        "axis_angle": {"axis": vector, "angle": NUMBERS | JUNK},
        "rotation": {"matrix": shaped(3, 3, NUMBERS)},
        "unitary": {"matrix": shaped(2, 2, ENTRIES)},
        "density": {"matrix": shaped(2, 2, ENTRIES)},
        "kraus": {"operators": st.lists(shaped(2, 2, ENTRIES), max_size=3)},
        "choi": {"matrix": shaped(4, 4, ENTRIES)},
    }[kind]
    return st.fixed_dictionaries(fields)


@st.composite
def documents(draw, kind):
    """The bytes of one input file: a ``kind`` document, sometimes damaged."""
    payload = draw(sampled_payload(kind) | generated_payload(kind))
    doc = {"schema_version": "1", "kind": kind, "payload": payload}
    # Undamaged most of the time, so that two-document commands reach the library.
    damage = draw(st.sampled_from(["none"] * 4 + ["kind", "document", "cut", "bytes"]))
    if damage == "kind":
        doc["kind"] = draw(st.sampled_from(KINDS + ("qutrit",)))
    elif damage == "document":
        doc = draw(st.sampled_from([[], 3, "x", {"schema_version": 1}]))
    data = json.dumps(doc).encode("utf-8")
    if damage == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    return b"\xff\xfe" + data if damage == "bytes" else data


# Each command family: its leading arguments and the kind of document it
# reads (None: any kind; diagram reads none, so bloch stands in).
COMMANDS = {
    "convert": (["convert", "--to"], None),
    "classify": (["classify"], "kraus"),
    "bloch-action": (["bloch-action"], "kraus"),
    "diagram": (["verify", "diagram"], "bloch"),
    "double-cover": (["verify", "double-cover"], "unitary"),
    "group": (["verify", "group"], "axis_angle"),
    "inverse-pair": (["verify", "inverse-pair"], "kraus"),
}
TOLS = ["nan", "inf", "-inf", "-1e-9", "0", "1e-12", "1e-9", "1e-3", "1e12", "abc"]


@st.composite
def command_lines(draw, family):
    """A command line of ``family`` reading doc0.json (and doc1.json)."""
    argv = list(COMMANDS[family][0])
    if family == "convert":
        argv += [draw(st.sampled_from(KINDS)), "doc0.json"]
    elif argv[0] == "verify":
        argv += ["doc0.json", "doc1.json"][: draw(st.integers(0, 2))]
        argv += ["--samples", str(draw(st.integers(0, 3))), "--seed", str(draw(st.integers(-5, 2**40)))]
    else:
        argv.append("doc0.json")
    tol = draw(st.none() | st.sampled_from(TOLS))
    if tol is not None:
        argv += draw(st.sampled_from([[f"--tol={tol}"], ["--tol", tol]]))
    return argv


def reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("family", COMMANDS)
@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    # The examples share tmp_path; each rewrites every file it reads.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_contract(tmp_path, family, data):
    argv = data.draw(command_lines(family), label="argv")
    kind = COMMANDS[family][1] or data.draw(st.sampled_from(KINDS), label="kind")
    for name in ("doc0.json", "doc1.json"):
        (tmp_path / name).write_bytes(data.draw(documents(kind), label=name))
    code, out = run_cli([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    assert code in (0, 1, 2, 3)
    json.loads(out, parse_constant=reject_constant)


# ----------------------------------------------------------------------
# The codec checks each cell once and writes each value by one test; its
# bytes, values and errors are those of the previous codec, kept in helpers.

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),  # NaN and the infinities, which have no JSON form
    st.sampled_from([0.0, -0.0, nan, inf, -inf, 1e-320]),
    st.builds(pow, st.just(10), st.just(5000)),  # past str()'s digit limit
    st.integers(),
    st.integers(10**300, 10**400),
    st.text(),  # non-ASCII too
    st.complex_numbers(max_magnitude=1.0),  # not serializable
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text() | st.integers() | st.booleans(), children, max_size=4),
    ),
    max_leaves=16,
)
# Cells a document can carry in place of a number or an [re, im] pair.
DAMAGED_CELLS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.just({}),
    st.lists(NUMBERS, min_size=1, max_size=1),
    st.lists(NUMBERS, min_size=3, max_size=3),
    st.lists(NUMBERS | st.booleans() | st.text(max_size=1), min_size=2, max_size=2),
    st.sampled_from([nan, inf, -inf, 1e400, 10**400, -(10**400), 0, -0.0, 1, 2**53 + 1]),
    NUMBERS,
)
MATRIX_KINDS = ("unitary", "density", "kraus", "choi")


@st.composite
def damaged_documents(draw):
    """A matrix document, some of whose cells are replaced or made bare numbers."""
    kind = draw(st.sampled_from(MATRIX_KINDS))
    payload = draw(sampled_payload(kind) | generated_payload(kind))
    matrices = payload["operators"] if kind == "kraus" else [payload["matrix"]]
    rows = [row for m in matrices if isinstance(m, list) for row in m if isinstance(row, list)]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.sampled_from(rows)) if rows else []
        if row:
            j = draw(st.integers(0, len(row) - 1))
            cell = row[j]
            bare = isinstance(cell, list) and len(cell) == 2 and draw(st.booleans())
            row[j] = cell[0] if bare else draw(DAMAGED_CELLS)
    return {"schema_version": "1", "kind": kind, "payload": payload}


def decoded(doc):
    """The decoded value's fingerprint, or the exit code and payload of the error."""
    try:
        kind, value = cli._decode_document(doc)
    except CliError as exc:
        return (exc.exit_code, exc.payload)
    except Exception as exc:  # compared, type included, against the reference's
        return fingerprint(exc)
    return (kind, fingerprint(value))


class TestCodecParity:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(value=VALUES)
    def test_dumps_matches_the_previous_encoder(self, value):
        assert outcome(cli.dumps, value) == outcome(dumps_reference, value)

    @pytest.mark.parametrize(
        "cells",
        [
            [[nan, "x"], [0, 1]],  # a damaged cell is reported before a non-finite one
            [[10**400, "x"], [0, 1]],  # an overflow is raised where it is met
            [["x", 10**400], [0, 1]],
            [[inf, 0], [0, [1, 0, 0]]],
            [[[1, True], 0], [0, 1]],
            [[1e400, 0], [0, 1]],
            [[1, -0.0], [[-0.0, -0.0], 1]],
        ],
    )
    def test_first_error_wins(self, cells):
        doc = {"schema_version": "1", "kind": "unitary", "payload": {"matrix": cells}}
        with mock.patch.object(cli, "_decode_cmatrix", _decode_cmatrix_reference):
            expected = decoded(doc)
        assert decoded(doc) == expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=damaged_documents())
    def test_decoder_matches_the_previous_decoder(self, doc):
        with mock.patch.object(cli, "_decode_cmatrix", _decode_cmatrix_reference):
            expected = decoded(doc)
        assert decoded(doc) == expected
