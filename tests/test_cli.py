"""Subcommand dispatch, output shapes, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import localfourier
from localfourier import cli
from localfourier.errors import InternalError

CORPUS = Path(__file__).parent / "corpus"

GOLDEN_IN = "El(rho=u, phi=1/1*u^-1, R=[(1:1)])"
GOLDEN_OUT = "El(rho=-1/1*u^2, phi=2/1*u^-1, R=[(-1:1)])"


@pytest.fixture
def run(capsys, monkeypatch):
    def go(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fourier_golden_stdin(run):
    code, out, err = run(
        ["fourier", "--kind", "0inf", "--sign", "minus", "-"], stdin=GOLDEN_IN
    )
    assert code == 0 and err == ""
    assert out.strip() == GOLDEN_OUT


def test_fourier_json(run):
    code, out, _ = run(
        ["fourier", "--kind", "0inf", "--sign", "minus", "--json", "-"],
        stdin=GOLDEN_IN,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == {"rank": 2, "irr": 1}
    assert payload["summands"][0]["rho"] == "-1/1*u^2"
    assert payload["provenance"] == {"kind": "0inf", "sign": "minus"}


def test_fourier_named_statements(run, tmp_path):
    path = _write(tmp_path, "two.conn", f"a = {GOLDEN_IN};\nb = {GOLDEN_IN};")
    code, out, _ = run(["fourier", "--kind", "0inf", path])
    assert code == 0
    assert out.splitlines() == [f"a = {GOLDEN_OUT};", f"b = {GOLDEN_OUT};"]


def test_fourier_domain_error_exit_1(run):
    code, out, err = run(
        ["fourier", "--kind", "inf0", "-"],
        stdin="El(rho=u, phi=1/1*u^-2, R=[(1:1)])",
    )
    assert code == 1 and out == ""
    assert "slope" in err


def test_fourier_sinf(run):
    code, out, _ = run(
        ["fourier", "--kind", "sinf", "--s", "2", "-"], stdin=GOLDEN_IN
    )
    assert code == 0 and "El(" in out
    code, _, err = run(["fourier", "--kind", "sinf", "-"], stdin=GOLDEN_IN)
    assert code == 1 and "--s" in err
    code, _, err = run(
        ["fourier", "--kind", "0inf", "--s", "2", "-"], stdin=GOLDEN_IN
    )
    assert code == 1


def test_parse_error_exit_2_with_location(run):
    code, out, err = run(
        ["canon", "-"], stdin="El(rho=u phi=1/1*u^-1, R=[(1:1)])"
    )
    assert code == 2 and out == ""
    assert re.search(r"\d+:\d+", err)


def test_canon_normalizes(run):
    code, out, _ = run(
        ["canon", "-"], stdin="El(rho=2/1*u, phi=1/1*u^-1 + 3/1, R=[(1:1)])"
    )
    assert code == 0
    assert out.strip() == "El(rho=u, phi=2/1*u^-1, R=[(1:1)])"


def test_dual_and_det(run):
    code, out, _ = run(["dual", "-"], stdin=GOLDEN_IN)
    assert code == 0
    assert out.strip() == "El(rho=u, phi=-1/1*u^-1, R=[(1:1)])"
    code, out, _ = run(
        ["det", "-"],
        stdin="El(rho=u, phi=1/1*u^-1, R=[(2:1),(3:1)])",
    )
    assert code == 0
    assert out.strip() == "El(rho=u, phi=2/1*u^-1, R=[(6:1)])"


def test_tensor_and_hom(run, tmp_path):
    a = _write(tmp_path, "a.conn", GOLDEN_IN)
    code, out, _ = run(["tensor", a, a])
    assert code == 0
    assert out.strip() == "El(rho=u, phi=2/1*u^-1, R=[(1:1)])"
    code, out, _ = run(["hom", a, a])
    assert code == 0
    assert out.strip() == "Reg(R=[(1:1)])"
    b = _write(tmp_path, "b.conn", f"{GOLDEN_IN} (+) Reg(R=[(1:1)])")
    code, _, err = run(["tensor", a, b])
    assert code == 1 and "exactly one" in err


def test_invariants(run):
    code, out, _ = run(
        ["invariants", "-"],
        stdin="El(rho=u^2, phi=1/1*u^-3, R=[(1:2)]) (+) Reg(R=[(5:1)])",
    )
    assert code == 0
    assert "rank 5, irregularity 6" in out
    assert "slope=3/2" in out
    code, out, _ = run(["invariants", "--json", "-"], stdin=GOLDEN_IN)
    assert code == 0
    assert json.loads(out)["-"]["total"] == {"rank": 1, "irr": 1}


def test_iso_directions(run, tmp_path):
    a = _write(tmp_path, "a.conn", "El(rho=u^2, phi=1/1*u^-1, R=[(1:1)])")
    b = _write(tmp_path, "b.conn", "El(rho=u^2, phi=-1/1*u^-1, R=[(1:1)])")
    c = _write(tmp_path, "c.conn", "El(rho=u^2, phi=2/1*u^-1, R=[(1:1)])")
    code, out, _ = run(["iso", a, b])
    assert code == 0 and "isomorphic" in out
    code, out, _ = run(["iso", a, c])
    assert code == 1 and out.strip() == "not isomorphic"


def test_rigidity_subcommand(run, tmp_path):
    text = (
        "p0 = Sing(at=0, germ=[(2:1),(3:1)]);\n"
        "p1 = Sing(at=1, germ=[(7:1),(11:1)]);\n"
        "pinf = Sing(at=infinity, reg=[(1:1),(4:1)]);\n"
    )
    path = _write(tmp_path, "rig.conn", text)
    code, out, _ = run(["rigidity", path])
    assert code == 0
    assert out.splitlines()[0] == "index = 2"
    assert "at infinity:" in out
    code, out, _ = run(["rigidity", "--json", path])
    payload = json.loads(out)
    assert payload["index"] == 2
    assert payload["rows"][2]["location"] == "infinity"
    one = _write(tmp_path, "one.conn", "p0 = Sing(at=0, germ=[(2:1)]);\n")
    code, out, err = run(["rigidity", "--genus", "-5", one])
    assert code == 1 and out == ""
    assert "genus" in err


def test_rigidity_names_clashing_data_by_position(run, tmp_path):
    text = "a = Sing(at=zeta(3), germ=[(2:1)]); b = Sing(at=zeta(3), germ=[(2:1)]);"
    code, out, err = run(["rigidity", _write(tmp_path, "dup.conn", text)])
    assert code == 1 and out == ""
    assert "data 1 and 2" in err
    assert "FieldElement<" not in err


def test_z_zhat_subcommand(run, tmp_path):
    data = _write(
        tmp_path,
        "d.conn",
        "p0 = Sing(at=0, summands=El(rho=u, phi=1/1*u^-1, R=[(1:1)]));\n"
        "pinf = Sing(at=infinity, reg=[(1:1)]);\n",
    )
    data_hat = _write(
        tmp_path,
        "dh.conn",
        "p0 = Sing(at=0, germ=[(1:2)]);\n"
        "pinf = Sing(at=infinity, lt1=El(rho=-1/1*u^2, phi=2/1*u^-1, R=[(-1:1)]), reg=[]);\n",
    )
    code, out, _ = run(["z-zhat", data, data_hat])
    assert code == 0
    assert out.strip() == "discrepancy = 0"


def test_z_zhat_reads_a_truncated_slope_one_piece(run, tmp_path):
    # the slope-one twist of this piece would need rho past u^2 + O(u^3)
    data = _write(
        tmp_path,
        "d.conn",
        "Sing(at=infinity, eq1=[(shat=1, els=El(rho=u^2 + O(u^3), phi=u^-1, R=[(1:1)]))])\n",
    )
    data_hat = _write(tmp_path, "dh.conn", "Sing(at=0, summands=El(rho=u, phi=u^-1, R=[(1:1)]))\n")
    for pair in ([data, data_hat], [data_hat, data]):
        assert run(["z-zhat", *pair]) == (0, "discrepancy = 0\n", "")


def test_oracle_subcommand(run):
    code, out, _ = run(["oracle-check", "--a=-3/2", "--q", "2"])
    assert code == 0
    assert "[ok] slope" in out and "[ok] monodromy" in out
    code, _, err = run(["oracle-check", "--a", "0", "--q", "2"])
    assert code == 1
    code, _, err = run(["oracle-check"])
    assert code == 1 and "--a" in err


def test_oracle_grid(run):
    code, out, _ = run(["oracle-check", "--grid"])
    assert code == 0
    assert len(out.splitlines()) == 30
    assert all("all stages agree" in line for line in out.splitlines())


def test_oracle_grid_refuses_a_and_q(run):
    # the grid fixes its own pole data; a flag it would ignore is an error
    for extra in (["--a", "3", "--q", "2"], ["--a", "3"], ["--q", "2"]):
        code, out, err = run(["oracle-check", "--grid", *extra])
        assert code == 1 and out == ""
        assert "--a and --q only apply without --grid" in err


def test_internal_error_exit_3(run, monkeypatch):
    def boom(a, q):
        raise InternalError("stage check failed")

    monkeypatch.setattr(cli, "oracle_check", boom)
    code, _, err = run(["oracle-check", "--a", "1", "--q", "1"])
    assert code == 3 and "internal error" in err


def test_missing_file_exit_1(run):
    code, _, err = run(["canon", "/nonexistent/path.conn"])
    assert code == 1 and "cannot read" in err


def test_precision_is_a_fourier_flag_only(run):
    code, out, err = run(["canon", "--precision", "5", "-"], stdin=GOLDEN_IN)
    assert code == 2 and out == ""
    assert "--precision" in err


def test_fourier_precision_sets_the_truncation(run):
    # phi' is not a monomial, so the new rho is a truncated expansion
    source = "El(rho=u, phi=1/1*u^-2 + 1/1*u^-1, R=[(1:1)])"
    tails = []
    for n in (6, 9):
        code, out, _ = run(
            ["fourier", "--kind", "0inf", "--precision", str(n), "-"], stdin=source
        )
        assert code == 0
        tails.append(re.search(r"O\(u\^(\d+)\)", out).group(1))
    assert tails == ["9", "12"]


def test_precision_does_not_carry_over_to_the_next_call(run):
    # main reuses one parser per process; no value may stay behind in it
    source = "El(rho=u, phi=1/1*u^-2 + 1/1*u^-1, R=[(1:1)])"
    plain = ["fourier", "--kind", "0inf", "-"]
    cli._build_parser.cache_clear()
    alone = run(plain, stdin=source)
    narrow = run(["fourier", "--kind", "0inf", "--precision", "6", "-"], stdin=source)
    after = run(plain, stdin=source)
    assert alone[0] == 0 and narrow[0] == 0
    assert narrow[1] != alone[1]
    assert after == alone


def test_fourier_precision_floor(run):
    source = "El(rho=u, phi=1/1*u^-2 + 1/1*u^-1, R=[(1:1)])"
    for n in ("0", "-3", "3"):
        code, out, err = run(
            ["fourier", "--kind", "0inf", "--precision", n, "-"], stdin=source
        )
        assert code == 2 and out == "", n
        assert "--precision" in err and "at least 4" in err, n
    code, _, _ = run(["fourier", "--kind", "0inf", "--precision", "4", "-"], stdin=source)
    assert code == 0


def test_corpus_malformed_exit_2(run):
    for path in sorted((CORPUS / "malformed").glob("*.conn")):
        code, _, err = run(["canon", str(path)])
        assert code == 2, path.name
        assert re.search(r"\d+:\d+", err), path.name


def test_corpus_valid_connections_print(run):
    for path in sorted((CORPUS / "valid").glob("*.conn")):
        code, out, err = run(["invariants", str(path)])
        if code == 1:
            # documents with only Sing statements have no connection rows
            assert "no connection" in err
        else:
            assert code == 0, path.name


def test_non_ascii_digit_exit_2_with_location(run):
    code, out, err = run(["canon", "-"], stdin="El(rho=u^², phi=1/1*u^-1, R=[(1:1)])")
    assert code == 2 and out == ""
    assert err == "parse error: 1:10: unexpected character '²'\n"
    code, _, err = run(["canon", "-"], stdin="El(rho=u, phi=1/1*u^-١, R=[(1:1)])")
    assert code == 2 and err.startswith("parse error: 1:22: ")


def test_undecodable_file_exit_2_with_location(run, tmp_path):
    path = tmp_path / "bad.conn"
    path.write_bytes(b"a = Reg(R=[(1:1)]);\nb = Reg(R=[(\xc3\xa9\xff:1)]);\n")
    code, out, err = run(["canon", str(path)])
    assert code == 2 and out == ""
    assert err == "parse error: 2:14: cannot decode the input as utf-8: invalid start byte\n"


def test_undecodable_byte_after_a_lone_cr_is_located_on_its_line(run, tmp_path):
    # the same line:col that a parse error at that byte would carry
    path = tmp_path / "cr.conn"
    for byte, message in ((b"\xff", "cannot decode"), (b"%", "unexpected character")):
        path.write_bytes(b"a = Reg(R=[(1:1)]);\rb = Reg(R=[(" + byte + b":1)]);\r")
        code, _, err = run(["canon", str(path)])
        assert code == 2 and err.startswith(f"parse error: 2:13: {message}")


def test_undecodable_stdin_exit_2_with_location(run, monkeypatch):
    raw = io.BytesIO(b"El(rho=u, phi=\xff*u^-1, R=[(1:1)])")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, out, err = run(["canon", "-"])
    assert code == 2 and out == ""
    assert err.startswith("parse error: 1:15: cannot decode the input as utf-8")


def _canon_subprocess(args, stdin=b""):
    # a fresh interpreter whose standard streams use latin-1, not UTF-8
    src = str(Path(localfourier.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="latin-1", PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "localfourier.cli", "canon", *args],
        input=stdin, env=env, capture_output=True, timeout=120,
    )
    return run.returncode, run.stdout, run.stderr


@pytest.mark.parametrize(
    "raw",
    [
        "El(rho=\u00fc, phi=\u00fc^-1, R=[(1:1)])".encode("utf-8"),
        # lone carriage returns end lines, and so end the comment
        b"a = El(rho=u, phi=u^-1, R=[(1:1)]); # one\rb = El(rho=u, phi=2*u^-1, R=[(1:1)]);\r",
    ],
    ids=["non-ascii-name", "cr-newlines"],
)
def test_stdin_and_file_decode_alike(tmp_path, raw):
    path = tmp_path / "doc.conn"
    path.write_bytes(raw)
    from_file = _canon_subprocess([str(path)])
    from_stdin = _canon_subprocess(["-"], stdin=raw)
    assert from_file[0] == 0 and from_file[2] == b""
    assert from_stdin == from_file
