"""Independent output checks for splitkit reports.

Every oracle here is computed by the benchmark itself, from closed forms
or from the generated input files; none of it imports splitkit.  A check
returns None when the report is right and a one-line reason when it is not.
"""

import itertools
import math
from fractions import Fraction

# --- integer polynomials as coefficient lists, degree 0 first ---------------


def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def boolean_mobius(n: int) -> list:
    """Graded Möbius polynomial of the subset lattice: (2 - tau)^n."""
    return [math.comb(n, j) * 2 ** (n - j) * (-1) ** j for j in range(n + 1)]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_mobius(n: int, q: int) -> list:
    """Graded Möbius polynomial of the subspace lattice of GF(q)^n.

    Pairs W <= V with codim j: choose V of dim i+j, then W inside it;
    mu(V, W) = (-1)^j q^(j(j-1)/2).
    """
    return [
        (-1) ** j
        * q ** (j * (j - 1) // 2)
        * sum(gaussian_binomial(n, i + j, q) * gaussian_binomial(i + j, j, q) for i in range(n - j + 1))
        for j in range(n + 1)
    ]


def inverse_polynomial(m: list) -> list:
    """(1 - tau*M) / (1 - tau); the division must be exact."""
    num = [1] + [0] * len(m)
    for j, c in enumerate(m):
        num[j + 1] -= c
    if sum(num):
        raise ValueError("1 - tau*M is not divisible by 1 - tau")
    return trim(itertools.accumulate(num))


def hilbert_series(m: list, truncation: int) -> list:
    """(1 - tau) / (1 - tau*M), coefficients of degrees 0..truncation."""
    den = [1] + [-c for c in m]
    num = [1, -1]
    out = []
    for k in range(truncation + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(acc)
    return out


def at_minus_tau(p: list) -> list:
    return [c if k % 2 == 0 else -c for k, c in enumerate(p)]


def koszul_series_side(m: list) -> list:
    """What a Koszul lattice's vertex algebra must have as Hilbert polynomial."""
    return at_minus_tau(inverse_polynomial(m))


def f_vector(facets) -> list:
    faces = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), r))
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == k) for k in range(1, top + 1)]


def euler_characteristic(facets) -> int:
    return sum((-1) ** k * c for k, c in enumerate(f_vector(facets)))


def ints(values) -> list:
    return [int(v) for v in values]


# --- rational matrices as lists of rows -------------------------------------


def matmul(a: list, b: list) -> list:
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def right_evaluation(coefficients: list, x: list) -> list:
    """x^n + sum_k a_k x^(n-k), coefficients a_1..a_n on the left."""
    d = len(x)
    n = len(coefficients)
    powers = [[[Fraction(int(i == j)) for j in range(d)] for i in range(d)]]
    for _ in range(n):
        powers.append(matmul(powers[-1], x))
    acc = powers[n]
    for k, a in enumerate(coefficients, start=1):
        term = matmul(a, powers[n - k])
        acc = [[u + v for u, v in zip(r, s)] for r, s in zip(acc, term)]
    return acc


# --- checks, one per subcommand ---------------------------------------------


def _exit_code(rc: int, passed: bool):
    want = 0 if passed else 1
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_discrepancy(report: dict, rc: int, height: int, expected: list | None = None):
    algebra, topology = report["algebra_side"], report["topology_side"]
    if report["degrees"] != list(range(height + 1)):
        return f"degrees {report['degrees']} do not run 0..{height}"
    if len(algebra) != height + 1:
        return f"algebra_side has {len(algebra)} entries, expected {height + 1}"
    if algebra != topology:
        return f"algebra_side {algebra} != topology_side {topology}"
    if report["sides_agree"] is not True:
        return "sides_agree is not true although the sides are equal"
    if report["nonzero_degrees"] != [k for k, v in enumerate(algebra) if v]:
        return "nonzero_degrees does not list the nonzero entries"
    if expected is not None and algebra != expected:
        return f"table {algebra}, expected {expected}"
    return _exit_code(rc, True)


def check_koszul(report: dict, rc: int, series_side: list | None = None, divergence: int | None = None):
    lhs, rhs = ints(report["lhs"]), ints(report["rhs"])
    passed = lhs == rhs
    if report["pass"] is not passed:
        return f"pass={report['pass']} but lhs {'==' if passed else '!='} rhs"
    first = next((k for k, (a, b) in enumerate(itertools.zip_longest(lhs, rhs, fillvalue=0)) if a != b), None)
    if report["first_divergence_degree"] != first:
        return f"first_divergence_degree {report['first_divergence_degree']}, expected {first}"
    if series_side is not None and lhs != series_side:
        return f"lhs {lhs}, closed form gives {series_side}"
    if divergence is not None and first != divergence:
        return f"first divergence at {first}, expected {divergence}"
    return _exit_code(rc, passed)


def check_topology(report: dict, rc: int, facets: list, betti_reduced: list | None = None):
    chi = euler_characteristic(facets)
    unreduced, reduced = ints(report["betti_unreduced"]), ints(report["betti_reduced"])
    if report["f_vector"] != f_vector(facets):
        return f"f_vector {report['f_vector']}, expected {f_vector(facets)}"
    if report["euler_characteristic"] != chi:
        return f"euler_characteristic {report['euler_characteristic']}, expected {chi}"
    alternating = sum((-1) ** i * b for i, b in enumerate(unreduced))
    if alternating != chi:
        return f"alternating Betti sum {alternating} != Euler characteristic {chi}"
    if not unreduced or reduced != [unreduced[0] - 1] + unreduced[1:]:
        return f"reduced Betti {reduced} do not follow from unreduced {unreduced}"
    if betti_reduced is not None and reduced != betti_reduced:
        return f"reduced Betti {reduced}, expected {betti_reduced}"
    return _exit_code(rc, report["koszulity_prediction"]["pass"])


def check_mobius(report: dict, rc: int, mobius: list):
    got = ints(report["graded_mobius"])
    if got != mobius:
        return f"graded_mobius {got}, expected {mobius}"
    return _exit_code(rc, True)


def check_hilbert(report: dict, rc: int, mobius: list, height: int):
    truncation = 2 * height
    if report["truncation"] != truncation:
        return f"truncation {report['truncation']}, expected {truncation}"
    series, want = ints(report["series"]), hilbert_series(mobius, truncation)
    if series != want:
        return f"series {series}, expected {want}"
    inverse, want = ints(report["inverse_polynomial"]), inverse_polynomial(mobius)
    if inverse != want:
        return f"inverse_polynomial {inverse}, expected {want}"
    if report["inverse_degree"] != len(want) - 1:
        return f"inverse_degree {report['inverse_degree']}, expected {len(want) - 1}"
    return _exit_code(rc, True)


def check_dual(report: dict, rc: int, dims: list, num_generators: int):
    got = ints(report["graded_dims"])
    if got != dims:
        return f"graded_dims {got}, expected {dims}"
    if len(report["generators"]) != num_generators:
        return f"{len(report['generators'])} generators, expected {num_generators}"
    relations = num_generators**2 - dims[2]
    if report["num_relations"] != relations:
        return f"num_relations {report['num_relations']}, expected {relations}"
    return _exit_code(rc, True)


def check_factor(report: dict, rc: int, roots: list):
    n = len(roots)
    if report["generic"] is not True or report["pass"] is not True:
        return f"generic={report['generic']} pass={report['pass']} on a generic root system"
    if report["num_orderings"] != math.factorial(n):
        return f"num_orderings {report['num_orderings']}, expected {math.factorial(n)}"
    coefficients = [[[Fraction(v) for v in row] for row in a] for a in report["coefficients"]]
    if len(coefficients) != n:
        return f"{len(coefficients)} coefficients, expected {n}"
    for i, x in enumerate(roots, start=1):
        if any(v for row in right_evaluation(coefficients, x) for v in row):
            return f"root {i} does not satisfy the reported polynomial"
    return _exit_code(rc, True)
