"""The four request lists.  Each request is one `splitkit.cli.main(argv)` call
with the check its report must pass; seeded inputs are written by `gen`."""

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import gen

RP2 = "fixtures/rp2.json"
SPHERE = "fixtures/boundary_delta3.json"
ROOTS3 = "fixtures/roots3.json"
NUM_COMPLEXES = 4
COMPLEX_SIZE = (8, 18)  # vertices, facets
ROOT_SHAPES = [(4, 3)] * 6 + [(3, 3)] * 2 + [(5, 2)] * 2  # (n, d)


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple
    check: Callable  # (report, exit code) -> None or a reason


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_passes: int  # req_tail_s: the tail percentile of this many whole passes
    build: Callable  # (input dir, seed) -> list of Request


def _zeros(height: int) -> list:
    return [0] * (height + 1)


def _discrepancy(source: tuple, label: str, field: str, height: int, expected=None) -> Request:
    return Request(
        f"discrepancy {label} {field}",
        ("discrepancy", *source, "--field", field),
        partial(checks.check_discrepancy, height=height, expected=expected),
    )


def _boolean_discrepancy(n: int, field: str) -> Request:
    # subset and subspace lattices are Cohen-Macaulay: no discrepancy anywhere
    return _discrepancy(("--boolean", str(n)), f"boolean{n}", field, n, _zeros(n))


def _subspace_discrepancy(n: int, q: int, field: str) -> Request:
    return _discrepancy(("--subspace", str(n), str(q)), f"subspace{n},{q}", field, n, _zeros(n))


def _hat_discrepancy(path: str, field: str, expected=None) -> Request:
    return _discrepancy(("--complex", path, "--hat"), f"{Path(path).stem}^", field, 4, expected)


def _topology(path: str, field: str, betti_reduced=None) -> Request:
    return Request(
        f"topology {Path(path).stem} {field}",
        ("topology", "--complex", path, "--field", field),
        partial(checks.check_topology, facets=facets(path), betti_reduced=betti_reduced),
    )


def _koszul(source: tuple, label: str, field: str, series_side=None, divergence=None) -> Request:
    return Request(
        f"koszul-check {label} {field}",
        ("koszul-check", *source, "--field", field),
        partial(checks.check_koszul, series_side=series_side, divergence=divergence),
    )


def _complexes(inputs: Path, seed: int) -> list:
    """Write the seeded random complexes; return their paths."""
    rng = random.Random(f"complexes:{seed}")
    paths = []
    for k in range(NUM_COMPLEXES):
        path = inputs / f"complex{k}.json"
        gen.write_complex(path, gen.random_complex(rng, *COMPLEX_SIZE))
        paths.append(str(path))
    return paths


def facets(path: str) -> list:
    return json.loads(Path(path).read_text())["facets"]


def topo_q(inputs: Path, seed: int) -> list:
    return [
        _boolean_discrepancy(5, "q"),
        _boolean_discrepancy(4, "q"),
        _subspace_discrepancy(3, 2, "q"),
        _hat_discrepancy(RP2, "q", _zeros(4)),
        _hat_discrepancy(SPHERE, "q", _zeros(4)),
        _topology(RP2, "q", [0, 0, 0]),
        _topology(SPHERE, "q", [0, 0, 1]),
    ] + [_hat_discrepancy(p, "q") for p in _complexes(inputs, seed)]


def topo_modp(inputs: Path, seed: int) -> list:
    return [
        _boolean_discrepancy(5, "gf2"),
        _boolean_discrepancy(5, "gf3"),
        _subspace_discrepancy(4, 2, "gf2"),
        _hat_discrepancy(RP2, "gf2", [0, 0, 0, 0, 1]),
        _topology(RP2, "gf2", [0, 1, 1]),
    ] + [_hat_discrepancy(p, f) for p in _complexes(inputs, seed) for f in ("gf2", "gf3")]


def algebra(inputs: Path, seed: int) -> list:
    boolean6 = checks.koszul_series_side(checks.boolean_mobius(6))
    subspace43 = checks.koszul_series_side(checks.subspace_mobius(4, 3))
    subspace52 = checks.subspace_mobius(5, 2)
    hat_rp2 = ("--complex", RP2, "--hat")
    return [
        _koszul(("--boolean", "6"), "boolean6", "q", boolean6),
        _koszul(("--boolean", "6"), "boolean6", "gf2", boolean6),
        _koszul(("--subspace", "4", "3"), "subspace4,3", "q", subspace43),
        _koszul(("--subspace", "4", "3"), "subspace4,3", "gf3", subspace43),
        _koszul(hat_rp2, "rp2^", "gf2", divergence=4),
        _koszul(hat_rp2, "rp2^", "q", divergence=None),
        Request(
            "dual subspace4,2 gf2",
            ("dual", "--subspace", "4", "2", "--field", "gf2"),
            partial(
                checks.check_dual,
                dims=checks.koszul_series_side(checks.subspace_mobius(4, 2)),
                num_generators=sum(checks.gaussian_binomial(4, k, 2) for k in range(1, 5)),
            ),
        ),
        Request(
            "dual boolean5 q",
            ("dual", "--boolean", "5", "--field", "q"),
            partial(checks.check_dual, dims=checks.koszul_series_side(checks.boolean_mobius(5)), num_generators=31),
        ),
        Request(
            "hilbert subspace5,2",
            ("hilbert", "--subspace", "5", "2"),
            partial(checks.check_hilbert, mobius=subspace52, height=5),
        ),
        Request("mobius subspace5,2", ("mobius", "--subspace", "5", "2"), partial(checks.check_mobius, mobius=subspace52)),
    ] + [_koszul(("--complex", p, "--hat"), Path(p).stem + "^", "q") for p in _complexes(inputs, seed)]


def factor(inputs: Path, seed: int) -> list:
    rng = random.Random(f"roots:{seed}")
    requests = []
    for k, (n, d) in enumerate(ROOT_SHAPES):
        roots = gen.random_roots(rng, n, d)
        path = inputs / f"roots{k}.json"
        gen.write_roots(path, roots)
        requests.append(Request(f"factor n={n} d={d} #{k}", ("factor", str(path)), partial(checks.check_factor, roots=roots)))
    roots3 = gen.read_roots(Path(ROOTS3))
    requests.append(Request("factor roots3", ("factor", ROOTS3), partial(checks.check_factor, roots=roots3)))
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("topo-q", "dense Fraction elimination in topo.betti dominates; this is where the sparse homology kernel acts", 2, topo_q),
        Workload("topo-modp", "the same topology layer on single-word GF(2)/GF(3) residues: a kernel change that helps Q but costs GF(p) shows here", 4, topo_modp),
        Workload("algebra", "topo is never called: the bypass for topology changes, while EchelonBasis, dualalg, laygraph and mobius work", 2, algebra),
        Workload("factor", "the only workload that runs ncfactor: many small dense inverses and products in exactlinalg", 4, factor),
    )
}
