"""Each demo script, and the README's Quick tour, runs to completion against the package API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitkit.seriespoly import IntPolynomial

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == "03_vertex_algebras_and_koszulity":
        # the two independent routes print the same list
        printed = {key: value.strip() for key, _, value in (line.partition(":") for line in proc.stdout.splitlines())}
        assert printed["transfer dims"] == printed["tensor-space dims"]


def _quick_tour() -> dict:
    """Run the README's Quick-tour block; map each bare expression's source to its value."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(block, node)] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    values.update(namespace)
    return values


def test_readme_quick_tour_states_its_values():
    tour = _quick_tour()
    assert tour["check_diamonds(rs).passed"] is True
    assert tour["check_all_orderings(rs).passed"] is True
    assert tour["graded_mobius(g)"] == IntPolynomial([2, -1]) ** 3
    assert tour["series"][:3] == (1, 7, 44) and len(tour["series"]) == 9
    assert tour["hilbert_series_inverse(g)"] == tour["inverse"] == IntPolynomial([1, -7, 5, -1])
    assert list(tour["vertex_hilbert(g, RATIONALS)"]) == [1, 7, 5, 1]
    assert tour["numerical_koszul_check(g, GF2).passes"] is True
    assert tour["predict_koszulity(x, GF2).passes"] is False
    assert tour["predict_koszulity(x, RATIONALS).passes"] is True
    assert tour["numerical_koszul_check(h, GF2).first_divergence_degree"] == 4
    assert tour["discrepancy_lhs_table(h, GF2)"] == [0, 0, 0, 0, 1]
    assert tour["discrepancy_rhs_table(h, GF2)"] == [0, 0, 0, 0, 1]
