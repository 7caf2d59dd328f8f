"""Byte-for-byte snapshot of the CLI over the valid corpus.

Running this file as a script prints the transcript: every call in a fixed
order, with its exit code, stdout and stderr.  The test runs the script in
a fresh interpreter with PYTHONHASHSEED=0 and compares the result with the
committed ``corpus_snapshot.txt``, so nothing an earlier test left in the
process can reach the transcript.

Regenerate (only when an output change is intended) with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_corpus_snapshot.py \
        > tests/corpus_snapshot.txt
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_name("corpus_snapshot.txt")
VALID = "tests/corpus/valid"


def _calls():
    from localfourier import dsl

    docs = sorted(str(p.relative_to(ROOT)) for p in (ROOT / VALID).glob("*.conn"))
    parsed = {d: dsl.parse((ROOT / d).read_text(encoding="utf-8")) for d in docs}
    with_conn = [d for d in docs if parsed[d].connection_list()]
    single = [
        d for d in docs
        if sum(len(c.summands) for c in parsed[d].connection_list()) == 1
    ]
    sing = [d for d in docs if parsed[d].data_list()]

    for d in docs:
        for cmd in ("canon", "invariants", "dual", "det"):
            yield [cmd, d]
            yield [cmd, "--json", d]
    for d in with_conn:
        for kind in ("0inf", "inf0", "infinf", "sinf"):
            for sign in ("minus", "plus"):
                extra = ["--s", "2"] if kind == "sinf" else []
                yield ["fourier", "--kind", kind, "--sign", sign, *extra, d]
    for i, d in enumerate(sing):
        yield ["rigidity", d]
        yield ["rigidity", "--json", d]
        yield ["z-zhat", d, d]
        yield ["z-zhat", d, sing[(i + 1) % len(sing)]]
    for i, d in enumerate(single):
        other = single[(i + 1) % len(single)]
        for cmd in ("tensor", "hom", "iso"):
            yield [cmd, d, other]
    yield ["oracle-check", "--grid"]


def transcript() -> str:
    from localfourier import cli

    out = []
    for argv in _calls():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
        out.append(f"$ localfourier {' '.join(argv)}\n[exit {code}]\n")
        out.append(f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return "".join(out)


def test_cli_output_on_valid_corpus_is_unchanged():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    got = subprocess.run(
        [sys.executable, __file__],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert got.returncode == 0, got.stderr
    expected = EXPECTED.read_text(encoding="utf-8")
    assert got.stdout == expected


if __name__ == "__main__":
    sys.stdout.write(transcript())
