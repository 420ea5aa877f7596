"""Command-line surface: deterministic JSON reports over the library.

Exit codes: 0 = success/pass, 1 = the mathematics says no (a failed
check is still a valid result), 2 = bad input or usage.  Each `_cmd_*`
returns (inputs, payload, exit code); `main` alone prints the report.

Every subcommand's arguments are rows of one table, `_SUBCOMMANDS`.  A
plain request is read straight off that table (`_read_argv`); argparse
is built from the same table and imported only for what the reader
declines, which is help, usage errors and unusual spellings, so argparse
alone prints every help text and usage error.
"""

import json
import math
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

# CPython's built-in SHA-256: `hashlib` would also map OpenSSL's
# libcrypto into every request, for one short digest.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # an interpreter built without the built-in hashes
        from hashlib import sha256

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
)
from .mobius import graded_mobius, hilbert_series
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
    return sha256(json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()).hexdigest()[:16]


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
    rep = g.validation()
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
    series, inv = hilbert_series(g, args.degree)
    payload = {
        "truncation": len(series) - 1,
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


class _Option:
    """One argument of a subcommand, as data that `build_parser` and `_read_argv` both read.

    `names` are the option strings, or the one name of a positional
    argument, which is always required; `dest` is the attribute argparse
    derives from them.  `type` is int or str for an argument that takes
    `nargs` values, and None for a flag (store_true).  The `source`
    options of a subcommand form its graph-source group, of which a
    request gives exactly one.
    """

    __slots__ = ("names", "dest", "type", "nargs", "metavar", "required", "source", "help")

    def __init__(self, names, help, type=str, nargs=1, metavar=None, required=False, source=False):
        self.names = names
        self.dest = names[-1].lstrip("-")
        self.type = type
        self.nargs = 0 if type is None else nargs
        self.metavar = metavar
        self.required = required
        self.source = source
        self.help = help


_GRAPH_SOURCE = (
    _Option(("--boolean",), "subset-lattice graph on {1..N}", int, metavar="N", source=True),
    _Option(("--subspace",), "subspace lattice of GF(Q)^N", int, 2, ("N", "Q"), source=True),
    _Option(("--complex",), "simplicial complex JSON; its face-poset graph is used", metavar="FILE", source=True),
    _Option(("--graph",), "layered graph JSON", metavar="FILE", source=True),
    _Option(("--hat",), "add one maximal vertex on top", None),
)
_FIELD = _Option(("--field",), "q or gf<p>", required=True)
_REPORT = (
    _Option(("--pretty",), "indented JSON output (default: compact)", None),
    _Option(("--timings",), "include wall-clock timings in the report", None),
)

# name -> (help, runner, arguments), in help order
_SUBCOMMANDS = {
    "graph": (
        "build/validate a layered graph; report uniformity and purity",
        _cmd_graph,
        (*_GRAPH_SOURCE, _Option(("--out",), "also write the graph JSON to a file", metavar="FILE"), *_REPORT),
    ),
    "mobius": ("graded Möbius polynomial of the graph poset", _cmd_mobius, (*_GRAPH_SOURCE, *_REPORT)),
    "hilbert": (
        "Hilbert series of the edge algebra and its inverse polynomial",
        _cmd_hilbert,
        (*_GRAPH_SOURCE, _Option(("-D", "--degree"), "truncation degree (default: 2 x height)", int), *_REPORT),
    ),
    "dual": ("vertex-algebra presentation and graded dimensions", _cmd_dual, (*_GRAPH_SOURCE, _FIELD, *_REPORT)),
    "koszul-check": (
        "numerical Koszulity: series side vs algebra side",
        _cmd_koszul,
        (*_GRAPH_SOURCE, _FIELD, *_REPORT),
    ),
    "discrepancy": (
        "degreewise series/algebra discrepancy vs its topological formula",
        _cmd_discrepancy,
        (*_GRAPH_SOURCE, _FIELD, *_REPORT),
    ),
    "topology": (
        "Betti numbers and the homological Koszulity prediction",
        _cmd_topology,
        (_Option(("--complex",), "simplicial complex JSON", metavar="FILE", required=True), _FIELD, *_REPORT),
    ),
    "factor": (
        "all factorizations of the polynomial with the given matrix roots",
        _cmd_factor,
        (_Option(("roots",), '{"d": size, "roots": [[["p/q", ...], ...], ...]}', metavar="ROOTS_JSON"), *_REPORT),
    ),
}


def build_parser():
    """The argparse parser, built from `_SUBCOMMANDS`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Exact computations on layered graphs, their algebras, and matrix-polynomial factorizations.",
    )
    parser.add_argument("--version", action="version", version=f"splitkit {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, run, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = None
        for opt in options:
            if opt.source and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            kwargs = {"action": "store_true"} if opt.type is None else {"type": opt.type, "metavar": opt.metavar}
            if opt.nargs > 1:
                kwargs["nargs"] = opt.nargs
            if opt.required:
                kwargs["required"] = True
            (group if opt.source else p).add_argument(*opt.names, help=opt.help, **kwargs)
        p.set_defaults(run=run)
    return parser


def _read_argv(argv: list):
    """The namespace argparse gives for a plain request, read off `_SUBCOMMANDS`; None for anything else.

    A plain request is a subcommand, then its arguments as exact tokens,
    each option at most once, with its values in separate tokens that do
    not start with "-", every required argument, and one graph source
    where the subcommand has them.  Help, abbreviations, "--x=v", "--",
    and every argv argparse would refuse read as None, so that argparse
    alone prints help and usage errors.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, run, options = _SUBCOMMANDS[argv[0]]
    by_name = {name: opt for opt in options for name in opt.names if name.startswith("-")}
    positional = [opt for opt in options if not opt.names[0].startswith("-")]
    values = {opt.dest: False if opt.type is None else None for opt in options}
    seen = set()
    i = 1
    while i < len(argv):
        opt = by_name.get(argv[i])
        if opt is None:  # any other token is the next positional argument's value
            if not positional:
                return None
            opt, first = positional.pop(0), i
        elif opt in seen:
            return None
        else:
            first = i + 1
        tokens = argv[first : first + opt.nargs]
        if len(tokens) < opt.nargs or any(t.startswith("-") for t in tokens):
            return None
        i = first + opt.nargs
        seen.add(opt)
        if opt.type is None:
            values[opt.dest] = True
            continue
        try:
            read = [opt.type(t) for t in tokens]
        except ValueError:
            return None
        values[opt.dest] = read if opt.nargs > 1 else read[0]
    if positional or any(opt.required and opt not in seen for opt in options):
        return None
    if any(opt.source for opt in options) and sum(opt.source for opt in seen) != 1:
        return None
    return SimpleNamespace(cmd=argv[0], run=run, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
