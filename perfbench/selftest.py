"""Shows that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs one small request per subcommand, requires its genuine report to
pass its check and every deliberately corrupted copy of it to fail, pins
the closed-form oracles to known values, checks the genericity filter and
shows that a request running past its timeout is killed and counted as
failed.  Exits 1 if any of that does not hold.
"""

import copy
import json
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

import checks
import gen
import run
from workloads import RP2, ROOTS3, Request, facets


def _set(path, value):
    def corrupt(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return corrupt


def _bump(v):
    return str(int(v) + 1) if isinstance(v, str) else v + 1


CASES = [
    (
        Request(
            "discrepancy rp2^ gf2",
            ("discrepancy", "--complex", RP2, "--hat", "--field", "gf2"),
            partial(checks.check_discrepancy, height=4, expected=[0, 0, 0, 0, 1]),
        ),
        {
            "topology side differs": _set(("topology_side", 4), 0),
            "both sides off the corpus value": lambda r: r.update(algebra_side=[0] * 5, topology_side=[0] * 5, nonzero_degrees=[]),
            "sides_agree false": _set(("sides_agree",), False),
            "degrees short": _set(("degrees",), [0, 1, 2, 3]),
            "exit code": None,
        },
    ),
    (
        Request(
            "koszul-check boolean3 q",
            ("koszul-check", "--boolean", "3", "--field", "q"),
            partial(checks.check_koszul, series_side=checks.koszul_series_side(checks.boolean_mobius(3))),
        ),
        {
            "lhs and rhs both off the closed form": lambda r: r.update(lhs=["1", "7", "5", "2"], rhs=["1", "7", "5", "2"]),
            "rhs differs but pass true": _set(("rhs", 2), _bump),
            "pass false": _set(("pass",), False),
            "exit code": None,
        },
    ),
    (
        Request(
            "koszul-check rp2^ gf2",
            ("koszul-check", "--complex", RP2, "--hat", "--field", "gf2"),
            partial(checks.check_koszul, divergence=4),
        ),
        {
            "divergence degree": _set(("first_divergence_degree",), 3),
            "pass true": _set(("pass",), True),
            "exit code": None,
        },
    ),
    (
        Request(
            "topology rp2 gf2",
            ("topology", "--complex", RP2, "--field", "gf2"),
            partial(checks.check_topology, facets=facets(RP2), betti_reduced=[0, 1, 1]),
        ),
        {
            "Betti sum off the Euler characteristic": _set(("betti_unreduced", 1), 0),
            "Euler characteristic": _set(("euler_characteristic",), 2),
            "reduced Betti": _set(("betti_reduced", 0), 1),
            "corpus Betti (consistent but wrong)": lambda r: r.update(
                betti_reduced=[0, 0, 0], betti_unreduced=[1, 0, 0]
            ),
            "f-vector": _set(("f_vector", 1), 14),
            "exit code": None,
        },
    ),
    (
        Request(
            "mobius subspace4,2",
            ("mobius", "--subspace", "4", "2"),
            partial(checks.check_mobius, mobius=checks.subspace_mobius(4, 2)),
        ),
        {"coefficient": _set(("graded_mobius", 2), _bump), "exit code": None},
    ),
    (
        Request(
            "hilbert boolean3",
            ("hilbert", "--boolean", "3"),
            partial(checks.check_hilbert, mobius=checks.boolean_mobius(3), height=3),
        ),
        {
            "series": _set(("series", 4), _bump),
            "inverse polynomial": _set(("inverse_polynomial", 1), _bump),
            "inverse degree": _set(("inverse_degree",), 2),
            "truncation": _set(("truncation",), 5),
            "exit code": None,
        },
    ),
    (
        Request(
            "dual boolean3 q",
            ("dual", "--boolean", "3", "--field", "q"),
            partial(checks.check_dual, dims=checks.koszul_series_side(checks.boolean_mobius(3)), num_generators=7),
        ),
        {
            "graded dims": _set(("graded_dims", 2), _bump),
            "relation count": _set(("num_relations",), _bump),
            "generators": _set(("generators",), lambda g: g[:-1]),
            "exit code": None,
        },
    ),
    (
        Request(
            "factor roots3",
            ("factor", ROOTS3),
            partial(checks.check_factor, roots=gen.read_roots(run.ROOT / ROOTS3)),
        ),
        {
            "coefficient entry": _set(("coefficients", 0, 0, 1), "-1/3"),
            "pass false": _set(("pass",), False),
            "ordering count": _set(("num_orderings",), 5),
            "exit code": None,
        },
    ),
]


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    expect(checks.subspace_mobius(4, 2) == [67, -240, 350, -240, 64], "subspace(4,2) Möbius from Gaussian binomials")
    expect(checks.boolean_mobius(3) == [8, -12, 6, -1], "(2 - tau)^3")
    expect(checks.inverse_polynomial(checks.boolean_mobius(3)) == [1, -7, 5, -1], "boolean(3) inverse polynomial")
    expect(checks.hilbert_series(checks.boolean_mobius(2), 3) == [1, 3, 8, 21], "boolean(2) Hilbert series")
    expect(checks.euler_characteristic(facets(RP2)) == 1, "Euler characteristic of RP^2")

    one = Fraction(1)
    equal_roots = [[[one, 0], [0, one]], [[one, 0], [0, one]]]
    expect(not gen.is_generic(equal_roots), "equal roots are rejected as non-generic")
    expect(gen.block_vandermonde_det([[[Fraction(1)]], [[Fraction(3)]]], (1, 2)) == -2, "scalar Vandermonde det 1 - 3")

    for req, corruptions in CASES:
        cmd = [sys.executable, str(run.HERE / "child.py"), "0", "-", *req.argv]
        proc = subprocess.run(cmd, cwd=run.ROOT, env=run.CHILD_ENV, capture_output=True, timeout=60)
        report = json.loads(proc.stdout.decode("utf-8"))
        expect(req.check(report, proc.returncode) is None, f"{req.label}: genuine report passes")
        for what, corrupt in corruptions.items():
            if corrupt is None:
                bad, code = report, 1 - proc.returncode
            else:
                bad, code = copy.deepcopy(report), proc.returncode
                corrupt(bad)
            try:
                reason = req.check(bad, code)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
            expect(reason is not None, f"{req.label}: rejects corrupted {what} ({reason})")

    hang = Request("discrepancy boolean6 q", ("discrepancy", "--boolean", "6", "--field", "q"), lambda r, c: None)
    start = time.monotonic()
    outcome = run.run_request(0, hang, hang.argv, time.monotonic() + 2.0)
    took = time.monotonic() - start
    expect(outcome.error is not None and "timed out" in outcome.error and took < 10, f"timeout kills a hung request ({took:.1f} s)")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
