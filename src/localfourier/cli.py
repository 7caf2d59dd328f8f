"""Command line front end.

Reads connection documents in the text format of the dsl module (a file
path or '-' for stdin) and dispatches to the library.  Exit codes: 0 on
success, 1 when a precondition fails, 2 on malformed input (input that does
not decode included), 3 when an internal invariant breaks.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import dsl
from .connection import canonicalize, is_isomorphic
from .errors import DomainError, InternalError, ParseError
from .fourier import (
    INFINITY,
    fourier_0_inf,
    fourier_inf_0,
    fourier_inf_inf,
    fourier_s_inf,
)
from .oracle import oracle_check
from .rigidity import rigidity_breakdown, z_zhat_discrepancy
from .structure import determinant_of_sum, dual, hom, tensor

_GRID_A = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))
_GRID_Q = range(1, 6)


def _read(path: str) -> str:
    # UTF-8 bytes on either route; a stdin with no .buffer (io.StringIO) gives text
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        text = raw if isinstance(raw, str) else raw.decode("utf-8")
    except UnicodeDecodeError as e:
        # malformed input, located at the first byte that does not decode
        before = e.object[:e.start].decode(e.encoding).replace("\r\n", "\n").replace("\r", "\n")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(f"cannot decode the input as {e.encoding}: {e.reason}", line, col)
    except OSError as e:
        raise DomainError(f"cannot read {path}: {e.strerror or e}")
    # newlines as in text mode: "\r\n" and a lone "\r" end a line
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _document(path: str) -> dsl.ParsedDocument:
    return dsl.parse(_read(path))


def _document_var(doc: dsl.ParsedDocument) -> str:
    for conn in doc.connection_list():
        for el in conn.summands:
            return el.rho.var
    return "u"


def _connection_statements(doc: dsl.ParsedDocument):
    stmts = [
        s for s in doc.statements if not isinstance(s.value, dsl.SingularityDatum)
    ]
    if not stmts:
        raise DomainError("the input contains no connection expression")
    return stmts


def _single_elementary(path: str):
    doc = _document(path)
    els = [el for conn in doc.connection_list() for el in conn.summands]
    if len(els) != 1:
        raise DomainError(
            f"{path}: expected exactly one elementary connection, found {len(els)}"
        )
    return els[0], _document_var(doc)


def _emit_connections(results, var: str, as_json: bool, provenance=None):
    if as_json:
        combined = []
        for _, m in results:
            combined.extend(dsl.relabel_variable(m, var).summands)
        payload = dsl.connection_schema(dsl.FormalConnection(tuple(combined)))
        if provenance is not None:
            payload["provenance"] = provenance
        print(json.dumps(payload, indent=2))
        return
    for name, m in results:
        text = dsl.render_connection(dsl.relabel_variable(m, var))
        print(text if name is None else f"{name} = {text};")


def _location_text(location) -> str:
    return "infinity" if location is INFINITY else dsl.render_scalar(location)


# -- subcommands -----------------------------------------------------------

def _fourier_op(args):
    # read once the document has parsed, so a parse error is reported first
    point = ()
    if args.kind == "sinf":
        if args.s is None:
            raise DomainError("kind sinf needs --s with the finite point")
        point = (dsl.parse_scalar_text(args.s),)
    elif args.s is not None:
        raise DomainError("--s only applies to kind sinf")
    transform = {
        "0inf": fourier_0_inf,
        "inf0": fourier_inf_0,
        "infinf": fourier_inf_inf,
        "sinf": fourier_s_inf,
    }[args.kind]
    return lambda m: dsl.FormalConnection(
        tuple(transform(el, *point, args.sign, args.precision) for el in m.summands)
    )


def _cmd_unary(args, op, provenance=None) -> int:
    # op(args) gives the map applied to each connection statement
    doc = _document(args.file)
    var = _document_var(doc)
    each = op(args)
    results = [(s.name, each(s.value)) for s in _connection_statements(doc)]
    _emit_connections(results, var, args.json, provenance)
    return 0


def _cmd_binary(args, op) -> int:
    a, var = _single_elementary(args.file)
    b, _ = _single_elementary(args.file2)
    _emit_connections([(None, op(a, b))], var, args.json)
    return 0


def _cmd_invariants(args) -> int:
    doc = _document(args.file)
    if args.json:
        payload = {}
        for stmt in _connection_statements(doc):
            payload[stmt.name or "-"] = dsl.connection_schema(stmt.value)
        print(json.dumps(payload, indent=2))
        return 0
    for stmt in _connection_statements(doc):
        m = stmt.value
        slopes = ", ".join(str(s) for s in m.slopes()) or "-"
        label = stmt.name or "input"
        print(f"{label}: rank {m.rank}, irregularity {m.irregularity}, slopes [{slopes}]")
        for k, el in enumerate(m.summands):
            print(
                f"  summand {k}: p={el.p} q={el.q} r={el.reg.rank} "
                f"slope={el.slope} irr={el.irregularity} rank={el.rank}"
            )
    return 0


def _cmd_iso(args) -> int:
    doc_a = _document(args.file)
    doc_b = _document(args.file2)
    conns_a = [s.value for s in _connection_statements(doc_a)]
    conns_b = [s.value for s in _connection_statements(doc_b)]
    if len(conns_a) != 1 or len(conns_b) != 1:
        raise DomainError("iso compares exactly one connection per file")
    var = _document_var(doc_a)
    if is_isomorphic(conns_a[0], conns_b[0]):
        witness = dsl.render_connection(
            dsl.relabel_variable(canonicalize(conns_a[0]), var)
        )
        print(f"isomorphic; common canonical form: {witness}")
        return 0
    print("not isomorphic")
    return 1


def _cmd_rigidity(args) -> int:
    doc = _document(args.file)
    data = doc.data_list()
    if not data:
        raise DomainError("the input contains no Sing(...) statements")
    breakdown = rigidity_breakdown(data, genus=args.genus)
    rows = [
        {
            "location": _location_text(row["location"]),
            "rank": row["rank"],
            "end_irregularity": row["end_irregularity"],
            "centralizer_term": row["centralizer_term"],
        }
        for row in breakdown["rows"]
    ]
    if args.json:
        payload = dict(breakdown, rows=rows)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"index = {breakdown['index']}")
    print(
        f"rank {breakdown['rank']}, genus {breakdown['genus']}, "
        f"euler term {breakdown['euler_term']}"
    )
    for row in rows:
        print(
            f"  at {row['location']}: end irregularity {row['end_irregularity']}, "
            f"centralizer term {row['centralizer_term']}"
        )
    return 0


def _cmd_z_zhat(args) -> int:
    data = _document(args.file).data_list()
    data_hat = _document(args.file2).data_list()
    if not data or not data_hat:
        raise DomainError("both inputs need Sing(...) statements")
    value = z_zhat_discrepancy(data, data_hat)
    print(f"discrepancy = {value}")
    return 0


def _cmd_oracle(args) -> int:
    if args.grid:
        if args.a is not None or args.q is not None:
            raise DomainError("--a and --q only apply without --grid")
        for a in _GRID_A:
            for q in _GRID_Q:
                report = oracle_check(a, q)
                print(report.lines()[0] + ": all stages agree")
        return 0
    if args.a is None or args.q is None:
        raise DomainError("oracle-check needs --a and --q (or --grid)")
    report = oracle_check(dsl.parse_scalar_text(args.a), args.q)
    for line in report.lines():
        print(line)
    return 0


# -- wiring ----------------------------------------------------------------

def _add_json(sp):
    sp.add_argument("--json", action="store_true", help="emit JSON")


def _window(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 4:
        raise argparse.ArgumentTypeError(
            f"working window must be an integer of at least 4, got {text!r}"
        )
    return n


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace each call
    parser = argparse.ArgumentParser(
        prog="localfourier",
        description="Local Fourier-Laplace transforms of formal connections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fourier", help="apply a local transform")
    sp.add_argument("file", help="connection document, or - for stdin")
    sp.add_argument(
        "--kind", required=True, choices=["0inf", "inf0", "sinf", "infinf"]
    )
    sp.add_argument("--sign", choices=["plus", "minus"], default="minus")
    sp.add_argument("--s", default=None, help="finite point for kind sinf")
    sp.add_argument(
        "--precision",
        type=_window,
        default=None,
        help="working window for truncated series (at least 4)",
    )
    _add_json(sp)
    sp.set_defaults(func=lambda a: _cmd_unary(a, _fourier_op, {
        "kind": a.kind, "sign": a.sign, **({"s": a.s} if a.kind == "sinf" else {})
    }))

    for name, op, help_text in (
        ("dual", lambda m: dsl.FormalConnection(tuple(dual(el) for el in m.summands)), "termwise dual"),
        ("det", lambda m: dsl.FormalConnection((determinant_of_sum(m),)), "determinant connection"),
        ("canon", canonicalize, "canonical form"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file")
        _add_json(sp)
        sp.set_defaults(func=lambda a, _op=op: _cmd_unary(a, lambda _: _op))

    sp = sub.add_parser("invariants", help="rank, irregularity, slopes")
    sp.add_argument("file")
    _add_json(sp)
    sp.set_defaults(func=_cmd_invariants)

    for name, op, help_text in (
        ("tensor", tensor, "tensor product of two elementaries"),
        ("hom", hom, "internal hom of two elementaries"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file")
        sp.add_argument("file2")
        _add_json(sp)
        sp.set_defaults(func=lambda a, _op=op: _cmd_binary(a, _op))

    sp = sub.add_parser("iso", help="decide isomorphism of two connections")
    sp.add_argument("file")
    sp.add_argument("file2")
    sp.set_defaults(func=_cmd_iso)

    sp = sub.add_parser("rigidity", help="index of rigidity of singularity data")
    sp.add_argument("file")
    sp.add_argument("--genus", type=int, default=0)
    _add_json(sp)
    sp.set_defaults(func=_cmd_rigidity)

    sp = sub.add_parser(
        "z-zhat", help="centralizer bookkeeping across a transform"
    )
    sp.add_argument("file")
    sp.add_argument("file2")
    sp.set_defaults(func=_cmd_z_zhat)

    sp = sub.add_parser("oracle-check", help="operator-route consistency check")
    sp.add_argument("--a", default=None, help="pole coefficient (DSL scalar)")
    sp.add_argument("--q", type=int, default=None, help="pole order")
    sp.add_argument("--grid", action="store_true", help="run the standard grid")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
