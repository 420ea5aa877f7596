"""Command-line surface: deterministic JSON reports over the library.

Exit codes: 0 = success/pass, 1 = the mathematics says no (a failed
check is still a valid result), 2 = bad input or usage.  Each `_cmd_*`
returns (inputs, payload, exit code); `main` alone prints the report.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .caps import ORDERING_CAP, size_cap
from .dualalg import discrepancy_lhs_table, numerical_koszul_check, vertex_hilbert, vertex_relation_count
from .errors import (
    ParseError,
    GenericityFailure,
    HypothesisViolation,
    NegativeDimension,
    NonzeroRemainder,
    SizeLimit,
    SplitkitError,
    ValidationError,
)
from .exactlinalg import DenseMatrix, parse_field
from .laygraph import (
    LayeredGraph,
    SimplicialComplex,
    _codim1_reached,
    _json_int,
    boolean_graph,
    complex_graph,
    hat,
    is_codim1_connected,
    is_pure,
    is_uniform,
    subspace_graph,
    validate,
)
from .mobius import graded_mobius, hilbert_series_and_inverse
from .ncfactor import RootSystem, check_diamonds, genericity_check
from .seriespoly import coeffs_as_strings
from .topo import _koszulity, betti, discrepancy_rhs_table, euler_characteristic

_MATH_ERRORS = (
    GenericityFailure,
    HypothesisViolation,
    NegativeDimension,
    NonzeroRemainder,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()).hexdigest()[:16]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno})") from exc


def _add_graph_source(parser: argparse.ArgumentParser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--boolean", type=int, metavar="N", help="subset-lattice graph on {1..N}")
    src.add_argument("--subspace", type=int, nargs=2, metavar=("N", "Q"), help="subspace lattice of GF(Q)^N")
    src.add_argument("--complex", metavar="FILE", help="simplicial complex JSON; its face-poset graph is used")
    src.add_argument("--graph", metavar="FILE", help="layered graph JSON")
    parser.add_argument("--hat", action="store_true", help="add one maximal vertex on top")


def _build_graph(args) -> tuple:
    """(graph, complex-or-None, input description dict)"""
    x = None
    if args.boolean is not None:
        g = boolean_graph(args.boolean)
        desc = {"source": "boolean", "n": args.boolean}
    elif args.subspace is not None:
        n, q = args.subspace
        g = subspace_graph(n, q)
        desc = {"source": "subspace", "n": n, "q": q}
    elif args.complex is not None:
        data = _load_json(args.complex)
        x = SimplicialComplex.from_json_dict(data)
        g = complex_graph(x)
        desc = {"source": "complex", "facets": x.to_json_dict()["facets"]}
    else:
        data = _load_json(args.graph)
        g = LayeredGraph.from_json_dict(data)
        desc = {"source": "graph", "graph": g.to_json_dict()}
    if args.hat:
        g = hat(g)
        desc["hat"] = True
    desc["digest"] = _digest(desc)
    return g, x, desc


def _cmd_graph(args) -> tuple:
    g, x, desc = _build_graph(args)
    rep = validate(g)
    payload = {
        "graph": g.to_json_dict(),
        "height": g.height,
        "num_vertices": len(g.vertices),
        "num_edges": len(g.edges),
        "valid": rep.ok,
        "violations": list(rep.violations),
        "uniform": is_uniform(g) if rep.ok else None,
    }
    if x is not None:
        payload["complex"] = {
            "dim": x.dim,
            "f_vector": x.f_vector(),
            "pure": is_pure(x),
            "codim1_connected": is_codim1_connected(x),
        }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(g.to_json_dict(), fh, sort_keys=True, ensure_ascii=False, indent=2)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from exc
        payload["written"] = args.out
    return desc, payload, 0 if rep.ok else 1


def _cmd_mobius(args) -> tuple:
    g, _, desc = _build_graph(args)
    payload = {"graded_mobius": coeffs_as_strings(graded_mobius(g))}
    return desc, payload, 0


def _cmd_hilbert(args) -> tuple:
    g, _, desc = _build_graph(args)
    series, inv = hilbert_series_and_inverse(g, args.degree)
    payload = {
        "truncation": series.truncation,
        "series": coeffs_as_strings(series),
        "inverse_polynomial": coeffs_as_strings(inv),
        "inverse_degree": inv.degree,
        "inverse_degree_equals_height": inv.degree == g.height,
    }
    return desc, payload, 0


def _cmd_dual(args) -> tuple:
    g, _, desc = _build_graph(args)
    field = parse_field(args.field)
    hb = vertex_hilbert(g, field)  # first: validation and the path cap fail fast
    payload = {
        "field": str(field),
        "generators": [v for v, lv in g.vertices if lv > 0],
        "num_relations": vertex_relation_count(g),
        "graded_dims": coeffs_as_strings(hb),
    }
    return desc, payload, 0


def _cmd_koszul(args) -> tuple:
    g, _, desc = _build_graph(args)
    field = parse_field(args.field)
    verdict = numerical_koszul_check(g, field)
    payload = {
        "field": str(field),
        "pass": verdict.passes,
        "first_divergence_degree": verdict.first_divergence_degree,
        "lhs": coeffs_as_strings(verdict.series_side),
        "rhs": coeffs_as_strings(verdict.algebra_side),
    }
    return desc, payload, 0 if verdict.passes else 1


def _cmd_discrepancy(args) -> tuple:
    g, _, desc = _build_graph(args)
    field = parse_field(args.field)
    lhs = discrepancy_lhs_table(g, field)
    rhs = discrepancy_rhs_table(g, field)
    payload = {
        "field": str(field),
        "degrees": list(range(g.height + 1)),
        "algebra_side": lhs,
        "topology_side": rhs,
        "sides_agree": lhs == rhs,
        "nonzero_degrees": [k for k, v in enumerate(lhs) if v],
        "uniform": is_uniform(g),
    }
    return desc, payload, 0 if lhs == rhs else 1


def _cmd_topology(args) -> tuple:
    data = _load_json(args.complex)
    x = SimplicialComplex.from_json_dict(data)
    field = parse_field(args.field)
    desc = {"source": "complex", "facets": x.to_json_dict()["facets"]}
    desc["digest"] = _digest(desc)
    reduced = betti(x, field)
    pure = is_pure(x)
    reached = _codim1_reached(x)
    unreduced = list(reduced)
    if unreduced:  # b_0 = reduced b_0 + 1 on a nonempty complex; the empty one fails below
        unreduced[0] += 1
    payload = {
        "field": str(field),
        "dim": x.dim,
        "f_vector": x.f_vector(),
        "euler_characteristic": euler_characteristic(x),
        "betti_reduced": list(reduced),
        "betti_unreduced": unreduced,
        "pure": pure,
        "codim1_connected": len(reached) == len(x.facets),  # read only when x is nonempty
    }
    try:
        verdict = _koszulity(x, field, reduced, pure, reached)
    except HypothesisViolation as exc:
        payload["koszulity_prediction"] = {"hypothesis_violation": str(exc)}
        return desc, payload, 1
    payload["koszulity_prediction"] = {
        "pass": verdict.passes,
        "low_homology_vanishes": verdict.low_homology_vanishes,
        "local_homology_ok": verdict.local_homology_ok,
        "top_dimension": verdict.n,
    }
    return desc, payload, 0 if verdict.passes else 1


def _root_entry(value) -> Fraction:
    """A root entry read from an input file: a "p/q" string or a JSON integer, never a float."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f'root entry must be a "p/q" string or an integer, got {json.dumps(value)}')
    return Fraction(value)


def _parse_roots(data) -> RootSystem:
    try:
        d = _json_int(data["d"], "root size d")
        mats = data["roots"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad roots JSON: {exc}") from exc
    if d < 1:
        raise ValidationError(f"root size d must be positive, got {d}")
    if not isinstance(mats, list):
        raise ValidationError("roots must be a list of matrices")
    matrices = []
    for m in mats:
        if not isinstance(m, list) or len(m) != d or any(not isinstance(r, list) or len(r) != d for r in m):
            raise ValidationError(f"root matrices must be {d}x{d}")
        try:
            matrices.append(DenseMatrix([[_root_entry(v) for v in row] for row in m]))
        except ZeroDivisionError as exc:
            raise ValidationError("root entry has a zero denominator") from exc
    return RootSystem(tuple(matrices))


def _cmd_factor(args) -> tuple:
    data = _load_json(args.roots)
    rs = _parse_roots(data)
    cap = size_cap(ORDERING_CAP)
    if math.factorial(rs.n) > cap:
        raise SizeLimit(f"{math.factorial(rs.n)} orderings exceeds cap {cap}")
    desc = {"source": "roots", "d": rs.d, "n": rs.n, "digest": _digest(data)}
    generic = genericity_check(rs)
    payload = {
        "n": rs.n,
        "d": rs.d,
        "generic": generic.generic,
        "singular_vandermondes": [list(s) for s in generic.singular_vandermondes],
        "singular_transforms": [[list(a), i] for a, i in generic.singular_transforms],
    }
    if not generic.generic:
        payload["pass"] = False
        return desc, payload, 1
    chk = check_diamonds(rs)

    def render(poly):
        return [[[str(v) for v in row] for row in c.entries] for c in poly.coefficients]

    payload["pass"] = chk.passed
    payload["num_orderings"] = math.factorial(rs.n)
    payload["coefficients"] = render(chk.polynomial) if chk.passed else None
    payload["mismatched_orderings"] = [list(o) for o in chk.mismatched]
    payload["diamonds"] = chk.diamonds
    payload["failed_diamonds"] = [[list(a), i, j] for a, i, j in chk.failed]
    payload["vandermonde_agrees"] = chk.vandermonde_agrees
    return desc, payload, 0 if chk.passed else 1


def _add_field(p):
    p.add_argument("--field", required=True, help="q or gf<p>")


def _add_out(p):
    p.add_argument("--out", metavar="FILE", help="also write the graph JSON to a file")


def _add_degree(p):
    p.add_argument("-D", "--degree", type=int, help="truncation degree (default: 2 x height)")


def _add_complex(p):
    p.add_argument("--complex", required=True, metavar="FILE", help="simplicial complex JSON")


def _add_roots(p):
    p.add_argument("roots", metavar="ROOTS_JSON", help='{"d": size, "roots": [[["p/q", ...], ...], ...]}')


# name -> (help, runner, adders of the arguments before --pretty and --timings), in help order
_SUBCOMMANDS = {
    "graph": (
        "build/validate a layered graph; report uniformity and purity",
        _cmd_graph,
        (_add_graph_source, _add_out),
    ),
    "mobius": ("graded Möbius polynomial of the graph poset", _cmd_mobius, (_add_graph_source,)),
    "hilbert": (
        "Hilbert series of the edge algebra and its inverse polynomial",
        _cmd_hilbert,
        (_add_graph_source, _add_degree),
    ),
    "dual": ("vertex-algebra presentation and graded dimensions", _cmd_dual, (_add_graph_source, _add_field)),
    "koszul-check": ("numerical Koszulity: series side vs algebra side", _cmd_koszul, (_add_graph_source, _add_field)),
    "discrepancy": (
        "degreewise series/algebra discrepancy vs its topological formula",
        _cmd_discrepancy,
        (_add_graph_source, _add_field),
    ),
    "topology": ("Betti numbers and the homological Koszulity prediction", _cmd_topology, (_add_complex, _add_field)),
    "factor": ("all factorizations of the polynomial with the given matrix roots", _cmd_factor, (_add_roots,)),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or with `only` that one.

    A request that names its subcommand first needs no other subparser.
    The one-subcommand parser lists every name in its usage line, so an
    "unrecognized arguments" error reads the same as from the full one;
    the full parser keeps argparse's own metavar, which also names `cmd`
    in its "required" and "invalid choice" errors.
    """
    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Exact computations on layered graphs, their algebras, and matrix-polynomial factorizations.",
    )
    parser.add_argument("--version", action="version", version=f"splitkit {__version__}")
    metavar = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name, (help_text, run, adders) in _SUBCOMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for add in adders:
                add(p)
            p.add_argument("--pretty", action="store_true", help="indented JSON output (default: compact)")
            p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
            p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs, payload, code = args.run(args)
        report = {"command": args.cmd, "inputs": inputs, "tool": {"name": "splitkit", "version": __version__}}
        report.update(payload)
        if args.timings:
            report["timings"] = {"seconds": round(time.monotonic() - started, 6)}
        text = json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2 if args.pretty else None)
    except _MATH_ERRORS as exc:
        code = 1
        text = json.dumps(
            {"command": args.cmd, "error": type(exc).__name__, "detail": str(exc)},
            sort_keys=True,
            ensure_ascii=False,
        )
    except (SplitkitError, ValueError) as exc:  # bad input, including files that cannot be read or written
        print(f"splitkit: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader went away: not a verdict, and the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("splitkit: cannot write the report: stdout was closed", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
