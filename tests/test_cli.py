import ast
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from splitkit.cli import _SUBCOMMANDS, _digest, _parse_roots, _read_argv, build_parser, main
from splitkit.dualalg import QuadraticPresentation
from splitkit.laygraph import LayeredGraph, SimplicialComplex, subspace_graph
from splitkit.mobius import hilbert_series_inverse
from splitkit.ncfactor import check_all_orderings
from splitkit.seriespoly import substitute_neg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_boolean(capsys):
    code, out, _ = run(capsys, "graph", "--boolean", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["num_vertices"] == 8 and rep["num_edges"] == 12
    assert rep["valid"] is True and rep["uniform"] is True


def test_graph_json_round_trips_isomorphically(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "--boolean", "2")
    emitted = json.loads(out)["graph"]
    assert code == 0
    g = LayeredGraph.from_json_dict(emitted)
    code2, out2, _ = run(capsys, "graph", "--graph", str(_write(tmp_path, "g.json", emitted)))
    assert code2 == 0
    assert LayeredGraph.from_json_dict(json.loads(out2)["graph"]) == g


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "hilbert", "--boolean", "3", "-D", "6")
    _, second, _ = run(capsys, "hilbert", "--boolean", "3", "-D", "6")
    assert first == second


@pytest.mark.parametrize("level", [2, 100000000000])
def test_mobius_rejects_invalid_graph(capsys, tmp_path, level):
    # the only edge drops more than one level; a huge level must not be
    # allocated as a coefficient list before the graph is checked
    data = {"vertices": [{"id": "m", "level": 0}, {"id": "a", "level": level}], "edges": [["a", "m"]]}
    code, out, err = run(capsys, "mobius", "--graph", str(_write(tmp_path, "g.json", data)))
    assert code == 2 and out == ""
    assert err == f"splitkit: edge level gap: a({level}) -> m(0)\n"


def test_hilbert_values(capsys):
    code, out, _ = run(capsys, "hilbert", "--boolean", "2", "-D", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["series"] == ["1", "3", "8", "21"]
    assert rep["inverse_polynomial"] == ["1", "-3", "1"]


def test_mobius_command(capsys):
    code, out, _ = run(capsys, "mobius", "--boolean", "2")
    assert code == 0
    assert json.loads(out)["graded_mobius"] == ["4", "-4", "1"]


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--boolean", "3", "--field", "q")
    assert code == 0
    assert json.loads(out)["graded_dims"] == ["1", "7", "5", "1"]


def test_dual_reads_the_relation_count_off_the_graph(capsys, monkeypatch):
    def refuse(cls, *args):
        raise AssertionError("dual eliminated the tensor-square relations")

    monkeypatch.setattr(QuadraticPresentation, "make", classmethod(refuse))
    code, out, _ = run(capsys, "dual", "--boolean", "3", "--field", "q")
    assert code == 0
    rep = json.loads(out)
    assert rep["generators"] == ["{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"]
    assert rep["graded_dims"] == ["1", "7", "5", "1"]
    # 7^2 - 9 edges between generators + 4 vertices of level >= 2
    assert rep["num_relations"] == 44


@pytest.mark.parametrize("field", ["q", "gf2"])
def test_koszul_check_passes_on_boolean_7(capsys, field):
    # the subset lattice is Koszul: the transfer meets the Möbius series at every degree
    code, out, _ = run(capsys, "koszul-check", "--boolean", "7", "--field", field)
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert rep["lhs"] == rep["rhs"] == ["1", "127", "321", "351", "209", "71", "13", "1"]


def test_dual_dims_of_subspace_5_2_equal_the_series_side(capsys):
    # the series side shares no code with the transfer that computes graded_dims
    code, out, _ = run(capsys, "dual", "--subspace", "5", "2", "--field", "gf2")
    assert code == 0
    series = substitute_neg(hilbert_series_inverse(subspace_graph(5, 2)))
    assert json.loads(out)["graded_dims"] == [str(c) for c in series.coeffs]


def test_koszul_check_exit_codes(capsys, tmp_path):
    rp2 = _write(tmp_path, "rp2.json", SimplicialComplex.from_json_dict(_rp2_dict()).to_json_dict())
    code, out, _ = run(capsys, "koszul-check", "--complex", str(rp2), "--hat", "--field", "gf2")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False and rep["first_divergence_degree"] == 4
    code, out, _ = run(capsys, "koszul-check", "--complex", str(rp2), "--hat", "--field", "q")
    assert code == 0 and json.loads(out)["pass"] is True


def _rp2_dict():
    from splitkit.fixtures import rp2_six

    return rp2_six().to_json_dict()


def test_discrepancy_command(capsys, tmp_path):
    rp2 = _write(tmp_path, "rp2.json", _rp2_dict())
    code, out, _ = run(capsys, "discrepancy", "--complex", str(rp2), "--hat", "--field", "gf2")
    assert code == 0
    rep = json.loads(out)
    assert rep["algebra_side"] == rep["topology_side"] == [0, 0, 0, 0, 1]
    assert rep["sides_agree"] is True and rep["nonzero_degrees"] == [4]
    assert rep["uniform"] is True
    assert "convention" not in rep


def test_discrepancy_has_no_convention_option(capsys):
    # the topology side has one rule, so there is nothing to choose
    with pytest.raises(SystemExit) as exc:
        main(["discrepancy", "--boolean", "2", "--field", "q", "--convention", "calibrated"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --convention calibrated" in err


def test_discrepancy_is_signed_on_non_uniform_graph(capsys):
    # both sides agree on a negative entry
    graph = Path(__file__).resolve().parents[1] / "fixtures" / "negative_discrepancy.json"
    for field in ("q", "gf2"):
        code, out, _ = run(capsys, "discrepancy", "--graph", str(graph), "--field", field)
        assert code == 0
        rep = json.loads(out)
        assert rep["algebra_side"] == rep["topology_side"] == [0, 0, 0, 2, -2]
        assert rep["nonzero_degrees"] == [3, 4] and rep["uniform"] is False


@pytest.mark.parametrize("field", ["q", "gf2", "gf3"])
def test_discrepancy_is_signed_on_uniform_graph(capsys, field):
    # the hatted face poset of a pure 3-complex with bt_1 = 1 is uniform, and its top entry is -1
    x = Path(__file__).resolve().parents[1] / "fixtures" / "uniform_negative_discrepancy.json"
    code, out, _ = run(capsys, "discrepancy", "--complex", str(x), "--hat", "--field", field)
    assert code == 0
    rep = json.loads(out)
    assert rep["algebra_side"] == rep["topology_side"] == [0, 0, 0, 0, 0, -1]
    assert rep["sides_agree"] is True and rep["uniform"] is True


def test_topology_command(capsys, tmp_path):
    rp2 = _write(tmp_path, "rp2.json", _rp2_dict())
    code, out, _ = run(capsys, "topology", "--complex", str(rp2), "--field", "gf2")
    assert code == 1
    rep = json.loads(out)
    assert rep["betti_reduced"] == [0, 1, 1]
    assert rep["koszulity_prediction"]["pass"] is False
    code, out, _ = run(capsys, "topology", "--complex", str(rp2), "--field", "q")
    assert code == 0 and json.loads(out)["koszulity_prediction"]["pass"] is True


def _components(facets) -> int:
    """Connected components by union-find over the edges of the facets."""
    parent = {v: v for f in facets for v in f}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in facets:
        for a in f[1:]:  # the edges from f[0] join all of f
            parent[root(a)] = root(f[0])
    return len({root(v) for v in parent})


def test_unreduced_betti_counts_components_of_random_complexes(capsys, tmp_path):
    rng = random.Random(20091019)
    for k in range(30):
        facets = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        path = _write(tmp_path, f"x{k}.json", {"facets": facets})
        for field in ("q", "gf2", "gf3"):
            _, out, _ = run(capsys, "topology", "--complex", str(path), "--field", field)
            rep = json.loads(out)
            unreduced, reduced = rep["betti_unreduced"], rep["betti_reduced"]
            assert unreduced[0] == _components(facets), (facets, field)
            assert unreduced[1:] == reduced[1:], (facets, field)


def test_topology_hypothesis_violation(capsys, tmp_path):
    wedge = _write(tmp_path, "w.json", {"facets": [[1, 2, 3], [3, 4, 5]]})
    code, out, _ = run(capsys, "topology", "--complex", str(wedge), "--field", "q")
    assert code == 1
    assert "hypothesis_violation" in json.loads(out)["koszulity_prediction"]


def test_factor_command(capsys, tmp_path):
    roots = _write(
        tmp_path,
        "roots.json",
        {"d": 1, "roots": [[["1"]], [["2"]], [["3"]]]},
    )
    code, out, _ = run(capsys, "factor", str(roots))
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["num_orderings"] == 6
    assert rep["coefficients"] == [[["-6"]], [["11"]], [["-6"]]]


def test_factor_report_is_the_ordering_report_plus_three_diamond_keys(capsys):
    path = Path(__file__).resolve().parents[1] / "fixtures" / "roots3.json"
    code, out, _ = run(capsys, "factor", str(path))
    assert code == 0
    rep = json.loads(out)
    ordering_keys = {"command", "inputs", "tool", "n", "d", "generic", "singular_vandermondes", "singular_transforms"}
    ordering_keys |= {"pass", "num_orderings", "coefficients", "mismatched_orderings"}
    assert set(rep) == ordering_keys | {"diamonds", "failed_diamonds", "vandermonde_agrees"}
    assert rep["diamonds"] == 6 and rep["failed_diamonds"] == [] and rep["vandermonde_agrees"] is True
    oracle = check_all_orderings(_parse_roots(json.loads(path.read_text(encoding="utf-8"))))
    assert rep["pass"] is oracle.passed is True
    assert rep["num_orderings"] == len(oracle.orderings) == 6
    assert rep["coefficients"] == [[[str(v) for v in row] for row in c.entries] for c in oracle.polynomial.coefficients]
    assert rep["mismatched_orderings"] == []


def test_factor_reports_genericity_failure(capsys, tmp_path):
    roots = _write(tmp_path, "roots.json", {"d": 1, "roots": [[["1"]], [["1"]]]})
    code, out, _ = run(capsys, "factor", str(roots))
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False and rep["singular_vandermondes"] == [[1, 2]]


def test_factor_on_fractional_roots_passes_the_benchmark_check(capsys, tmp_path, monkeypatch):
    # the benchmark draws integer roots only; its own oracle, which shares no
    # code with splitkit, checks reports on p/q entries here
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_checks", root / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    rng = random.Random(20091015)
    checked = 0
    for k in range(12):
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        roots = [
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)] for _ in range(n)
        ]
        path = _write(tmp_path, f"roots{k}.json", {"d": d, "roots": [[[str(v) for v in r] for r in m] for m in roots]})
        code, out, _ = run(capsys, "factor", str(path))
        rep = json.loads(out)
        if not rep["generic"]:  # the check holds only for generic systems
            assert code == 1
            continue
        assert checks.check_factor(rep, code, roots) is None
        checked += 1
    assert checked >= 10


def test_factor_over_ordering_cap_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "2")
    two = _write(tmp_path, "two.json", {"d": 1, "roots": [[["1"]], [["2"]]]})
    code, out, _ = run(capsys, "factor", str(two))
    assert code == 0 and json.loads(out)["num_orderings"] == 2
    three = _write(tmp_path, "three.json", {"d": 1, "roots": [[["1"]], [["2"]], [["3"]]]})
    code, out, err = run(capsys, "factor", str(three))
    assert code == 2 and out == ""
    assert err == "splitkit: 6 orderings exceeds cap 2\n"


def _src_env():
    """The environment for a fresh interpreter that imports this checkout's `src/splitkit`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_is_a_usage_error_without_traceback():
    # the reader is gone before the child writes: a closed pipe is no
    # mathematical verdict, so the exit code is 2, not 1
    env = _src_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splitkit.cli", "mobius", "--boolean", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "splitkit: cannot write the report: stdout was closed\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "data, message",
    [
        ({"d": 1, "roots": [5]}, "root matrices must be 1x1"),
        ({"d": 1, "roots": [[["1/0"]]]}, "root entry has a zero denominator"),
        ({"d": 0, "roots": [[]]}, "root size d must be positive, got 0"),
        ({"d": 1, "roots": 5}, "roots must be a list of matrices"),
        ({"d": 1, "roots": [["1"]]}, "root matrices must be 1x1"),
        ({"d": 1.7, "roots": [[["3"]]]}, "root size d must be an integer, got 1.7"),
        ({"d": True, "roots": [[["3"]]]}, "root size d must be an integer, got true"),
        ({"d": 1, "roots": [[[0.5]]]}, 'root entry must be a "p/q" string or an integer, got 0.5'),
        ({"d": 1, "roots": [[[True]]]}, 'root entry must be a "p/q" string or an integer, got true'),
        ({"d": 1, "roots": [[[None]]]}, 'root entry must be a "p/q" string or an integer, got null'),
    ],
)
def test_factor_malformed_roots_are_usage_errors(capsys, tmp_path, data, message):
    roots = _write(tmp_path, "roots.json", data)
    code, out, err = run(capsys, "factor", str(roots))
    assert code == 2 and out == ""
    assert err == f"splitkit: {message}\n"


def test_malformed_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "topology", "--complex", str(bad), "--field", "q")
    assert code == 2
    assert "malformed JSON" in err


def test_empty_complex_is_usage_error(capsys, tmp_path):
    empty = _write(tmp_path, "empty.json", {"facets": []})
    for argv in (("topology", "--complex", str(empty), "--field", "q"), ("graph", "--complex", str(empty))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "splitkit: complex must have at least one facet\n"


def test_boolean_over_vertex_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("SPLITKIT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, "graph", "--boolean", "13")
    assert code == 2 and out == ""
    assert err == "splitkit: 8192 subsets exceeds cap 4096\n"


@pytest.mark.parametrize("command", [("discrepancy", "--field", "gf2"), ("koszul-check", "--field", "q")])
def test_boolean_over_path_cap_is_usage_error(capsys, monkeypatch, command):
    monkeypatch.delenv("SPLITKIT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, *command, "--boolean", "8")
    assert code == 2 and out == ""
    assert err == "splitkit: 188255 downward paths exceeds cap 100000\n"


@pytest.mark.parametrize(
    "degree, message",
    [
        ("1000000", "truncation degree 1000000 exceeds cap 4096"),
        ("3000", "coefficient at degree 2930 exceeds 4300 digits"),
        ("-1", "truncation degree -1 is negative"),
    ],
)
def test_hilbert_truncation_too_large_is_usage_error(capsys, monkeypatch, degree, message):
    monkeypatch.delenv("SPLITKIT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, "hilbert", "--boolean", "5", "-D", degree)
    assert code == 2 and out == ""
    assert err == f"splitkit: {message}\n"


def test_boolean_over_pair_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("SPLITKIT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, "mobius", "--boolean", "11")
    assert code == 2 and out == ""
    assert err == "splitkit: 175099 comparable pairs exceeds cap 100000\n"


def test_composite_subspace_modulus_is_usage_error(capsys):
    code, out, err = run(capsys, "graph", "--subspace", "2", "4")
    assert code == 2 and out == ""
    assert err == "splitkit: modulus 4 is not prime\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "koszul-check", "--graph", "/nonexistent.json", "--field", "q")
    assert code == 2 and "no such file" in err


@pytest.mark.parametrize(
    "command, data, message",
    [
        (("topology", "--field", "q", "--complex"), {"facets": [[1.7, 2]]}, "facet vertex must be an integer, got 1.7"),
        (("graph", "--complex"), {"facets": [[True, 2]]}, "facet vertex must be an integer, got true"),
        (
            ("graph", "--graph"),
            {"vertices": [{"id": "m", "level": 0}, {"id": "a", "level": 1.9}], "edges": [["a", "m"]]},
            "vertex level must be an integer, got 1.9",
        ),
    ],
)
def test_non_integer_json_inputs_are_usage_errors(capsys, tmp_path, command, data, message):
    path = _write(tmp_path, "input.json", data)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err == f"splitkit: {message}\n"


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["m", "a"], ["am"], 'edge must be a two-element list, got "am"'),
        (["m", "a"], [["a", "m", "m"]], 'edge must be a two-element list, got ["a", "m", "m"]'),
        (["m", "a"], [["a", 0]], "edge endpoint must be a string, got 0"),
        (["m", None], [], "vertex id must be a string, got null"),
        (["m", True], [], "vertex id must be a string, got true"),
    ],
)
def test_non_string_graph_json_inputs_are_usage_errors(capsys, tmp_path, vertices, edges, message):
    data = {"vertices": [{"id": v, "level": lv} for lv, v in enumerate(vertices)], "edges": edges}
    path = _write(tmp_path, "graph.json", data)
    code, out, err = run(capsys, "graph", "--graph", str(path))
    assert code == 2 and out == ""
    assert err == f"splitkit: {message}\n"


def test_file_os_errors_are_usage_errors(capsys, tmp_path):
    for argv in (
        ("topology", "--complex", str(tmp_path), "--field", "q"),
        ("factor", str(tmp_path)),
        ("graph", "--boolean", "2", "--out", str(tmp_path / "missing" / "x.json")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("splitkit: ") and str(tmp_path) in err


def _assert_read_as_argparse(parser, argv):
    # argparse accepts the argv, and so does the fast reader, to the same
    # namespace: a request the project runs never falls back to argparse
    fast = _read_argv(argv)
    assert fast is not None, argv
    assert vars(fast) == vars(parser.parse_args(argv)), argv


def test_benchmark_requests_parse(tmp_path, monkeypatch):
    # every argv the perfbench workloads send must parse, so removing a flag
    # they use fails here and not only in the benchmark
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads

    parser = build_parser()
    for workload in workloads.WORKLOADS.values():
        requests = workload.build(tmp_path, 1)
        assert requests
        for req in requests:
            _assert_read_as_argparse(parser, list(req.argv))


def test_benchmark_tracing_targets_exist():
    # perfbench/tracing.py wraps these modules and methods by name, so
    # deleting or renaming one fails here and not only in a traced run
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"splitkit.{layer}")
    for layer, classes in tracing.METHODS.items():
        mod = importlib.import_module(f"splitkit.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                assert meth in vars(getattr(mod, cls_name)), f"{layer}.{cls_name}.{meth}"


def test_documented_commands_parse():
    # every `splitkit ...` line of the README and of the calibration doc's
    # Reproducing block must parse, so removing or renaming a documented flag fails here
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    calibration = (root / "docs" / "discrepancy_calibration.md").read_text(encoding="utf-8")
    reproducing = calibration.split("## Reproducing")[1]
    parser = build_parser()
    for text in (readme, reproducing):
        lines = [line.split("#")[0] for line in text.splitlines() if line.startswith("splitkit ")]
        assert lines
        for line in lines:
            _assert_read_as_argparse(parser, shlex.split(line)[1:])


# per subcommand: a valid argv after the name, and one that lacks a required option
_PARSE_CASES = {
    "graph": (["--boolean", "2"], ["--out", "g.json"]),
    "mobius": (["--boolean", "2"], []),
    "hilbert": (["--boolean", "2", "-D", "3"], ["-D", "3"]),
    "dual": (["--boolean", "2", "--field", "q"], ["--boolean", "2"]),
    "koszul-check": (["--boolean", "2", "--field", "q"], ["--field", "q"]),
    "discrepancy": (["--graph", "g.json", "--field", "gf2"], ["--graph", "g.json"]),
    "topology": (["--complex", "x.json", "--field", "q"], ["--field", "q"]),
    "factor": (["roots.json"], ["--pretty"]),
}
_PARSER_ARGVS = [[], ["bogus"], ["-h"], ["--version"]] + [
    argv
    for name, (valid, missing) in _PARSE_CASES.items()
    for argv in ([name, "-h"], [name, *missing], [name, *valid, "--bogus"])
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_one_subcommand_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    # main answers help and usage errors with the one full parser, built
    # once: its output and exit code are argparse's own
    import splitkit.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    got = _outcome(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out = capsys.readouterr()
    assert got == (exc.value.code, out.out, out.err)
    assert built == [1] and got[0] in (0, 2)


_PLAIN_ARGVS = [
    argv
    for name, (valid, _) in _PARSE_CASES.items()
    for argv in ([name, *valid], [name, "--pretty", *valid])
]


@pytest.mark.parametrize("argv", _PLAIN_ARGVS, ids=" ".join)
def test_one_subcommand_plain_request_builds_no_parser(capsys, monkeypatch, argv):
    # a plain request is read off the option table alone; its outcome is
    # the one argparse's reading of the same argv gives
    import splitkit.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    fast = _outcome(capsys, argv)
    assert built == []
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert _outcome(capsys, argv) == fast
    assert built == [1]


# hostile tokens: a negative number, an empty value, the end-of-options
# marker, an attached value, an abbreviation, help, a non-ASCII digit and
# an int with a leading space (both of which int() reads)
_HOSTILE = ["-3", "", "--", "--field=q", "--bool", "-h", "\u0663", " 4"]
_TABLE_TOKENS = sorted({*_SUBCOMMANDS, *(n for _, _, opts in _SUBCOMMANDS.values() for o in opts for n in o.names)})


@st.composite
def _argvs(draw):
    """A subcommand and its own arguments, mostly well formed, with some repeats and foreign or hostile tokens."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = _SUBCOMMANDS[name][2]
    sources = [opt for opt in options if opt.source]
    chosen = [opt for opt in options if not opt.source and draw(st.integers(0, 9)) < (9 if opt.required else 4)]
    chosen += [draw(st.sampled_from(sources)) for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])) if sources else 0)]
    if chosen and not draw(st.integers(0, 9)):
        chosen.append(draw(st.sampled_from(chosen)))
    argv = [name]
    for opt in draw(st.permutations(chosen)):
        if opt.names[0].startswith("-"):
            argv.append(draw(st.sampled_from(opt.names)))
        good = ["0", "2", "3", "12"] if opt.type is int else ["q", "gf2", "x.json", "3"]
        for _ in range(opt.nargs):
            argv.append(draw(st.sampled_from(good if draw(st.integers(0, 9)) else _HOSTILE)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TABLE_TOKENS + _HOSTILE)))
    return argv


_REFERENCE = build_parser()


@settings(max_examples=1000, deadline=None, database=None)
@seed(20091025)
@given(_argvs())
def test_read_argv_equals_argparse_or_declines(argv):
    fast = _read_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ref = vars(_REFERENCE.parse_args(argv))
    except SystemExit:  # help or a usage error: argparse alone answers those
        ref = None
    assert fast is None or vars(fast) == ref, (argv, fast, ref)


def test_topology_ranks_the_complex_once(capsys, monkeypatch):
    # the report and the Koszulity prediction share one Betti vector, and
    # the links of its faces are ranked apart from it
    import splitkit.topo as topo

    ranked = []
    boundary_columns = topo.boundary_columns
    monkeypatch.setattr(topo, "boundary_columns", lambda x: ranked.append(x) or boundary_columns(x))
    code, out, _ = run(capsys, "topology", "--complex", _RP2, "--field", "q")
    assert code == 0 and json.loads(out)["betti_reduced"] == [0, 0, 0]
    x = SimplicialComplex.from_json_dict(json.loads(Path(_RP2).read_text(encoding="utf-8")))
    assert ranked.count(x) == 1 and len(ranked) > 1


def test_discrepancy_builds_one_boundary_for_the_graphs_chains(capsys, monkeypatch):
    # boolean_5's sixteen vertices of level >= 3 have down-set complexes of
    # 1,030 faces between them, of which 540 are distinct chains
    import splitkit.topo as topo

    built = []
    boundary = topo._boundary
    monkeypatch.setattr(topo, "_boundary", lambda rows: built.append(sum(map(len, rows))) or boundary(rows))
    code, out, _ = run(capsys, "discrepancy", "--boolean", "5", "--field", "gf2")
    assert code == 0 and json.loads(out)["topology_side"] == [0] * 6
    assert built == [540]


def test_discrepancy_validates_each_graph_once(capsys, monkeypatch):
    # the hat, the algebra side, the Möbius polynomial and the topology side all require a valid graph
    import splitkit.laygraph as laygraph

    seen = []  # the graphs themselves, so no id is reused while counting
    validate = laygraph.validate
    monkeypatch.setattr(laygraph, "validate", lambda g: seen.append(g) or validate(g))
    code, out, _ = run(capsys, "discrepancy", "--complex", _RP2, "--hat", "--field", "gf2")
    assert code == 0 and json.loads(out)["sides_agree"]
    assert len(seen) == len({id(g) for g in seen}) == 2  # the face poset and its hat


def test_hilbert_builds_the_mobius_polynomial_once(capsys, monkeypatch):
    import splitkit.mobius as mobius

    built = []
    graded_mobius = mobius.graded_mobius
    monkeypatch.setattr(mobius, "graded_mobius", lambda g: built.append(g) or graded_mobius(g))
    code, out, _ = run(capsys, "hilbert", "--boolean", "4")
    assert code == 0 and json.loads(out)["inverse_degree"] == 4
    assert len(built) == 1


def test_pretty_flag_changes_layout_not_content(capsys):
    _, compact, _ = run(capsys, "mobius", "--boolean", "2")
    _, pretty, _ = run(capsys, "mobius", "--boolean", "2", "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
_RP2 = str(_FIXTURES / "rp2.json")
_ENVELOPE_RUNS = [
    (("graph", "--complex", _RP2, "--hat"), lambda rep: rep["valid"]),
    (("mobius", "--complex", _RP2, "--hat"), lambda rep: True),
    (("hilbert", "--complex", _RP2, "--hat"), lambda rep: True),
    (("dual", "--complex", _RP2, "--hat", "--field", "gf2"), lambda rep: True),
    (("koszul-check", "--complex", _RP2, "--hat", "--field", "gf2"), lambda rep: rep["pass"]),
    (("discrepancy", "--complex", _RP2, "--hat", "--field", "gf2"), lambda rep: rep["sides_agree"]),
    (("topology", "--complex", _RP2, "--field", "gf2"), lambda rep: rep["koszulity_prediction"]["pass"]),
    (("factor", str(_FIXTURES / "roots3.json")), lambda rep: rep["pass"]),
]


@pytest.mark.parametrize("argv, verdict", _ENVELOPE_RUNS, ids=[argv[0] for argv, _ in _ENVELOPE_RUNS])
def test_every_report_has_the_envelope_and_timings_add_one_key(capsys, argv, verdict):
    from splitkit import __version__

    code, out, err = run(capsys, *argv)
    rep = json.loads(out)
    assert err == ""
    assert rep["command"] == argv[0]
    assert rep["tool"] == {"name": "splitkit", "version": __version__}
    assert re.fullmatch(r"[0-9a-f]{16}", rep["inputs"]["digest"])
    assert code == (0 if verdict(rep) else 1)
    code_t, out_t, _ = run(capsys, *argv, "--timings")
    timed = json.loads(out_t)
    assert code_t == code
    assert set(timed) - set(rep) == {"timings"} and set(timed["timings"]) == {"seconds"}
    seconds = timed.pop("timings")["seconds"]
    assert isinstance(seconds, (int, float)) and seconds >= 0
    assert timed == rep


def _lone_facet(tmp_path, m):
    return str(_write(tmp_path, f"facet{m}.json", {"facets": [list(range(m))]}))


@pytest.mark.parametrize("command", [("graph",), ("topology", "--field", "q"), ("discrepancy", "--field", "q")])
def test_complex_over_face_cap_is_usage_error(capsys, tmp_path, monkeypatch, command):
    # the face poset of a 13-vertex facet is boolean_graph(13), over the vertex cap;
    # counting stops at the cap, so the refusal comes before the graph is built
    monkeypatch.delenv("SPLITKIT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, *command, "--complex", _lone_facet(tmp_path, 13))
    assert code == 2 and out == ""
    assert err == "splitkit: more than 4096 faces, the empty face included, exceeds cap 4096\n"


def test_face_cap_follows_the_size_cap_override(capsys, tmp_path, monkeypatch):
    # 2^7 = 128 faces with the empty one is over 100; 2^6 = 64 is not
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "100")
    code, out, err = run(capsys, "graph", "--complex", _lone_facet(tmp_path, 7))
    assert code == 2 and out == ""
    assert err == "splitkit: more than 100 faces, the empty face included, exceeds cap 100\n"
    code, out, _ = run(capsys, "graph", "--complex", _lone_facet(tmp_path, 6))
    assert code == 0 and json.loads(out)["num_vertices"] == 64


def test_graph_out_writes_hat_file(capsys, tmp_path):
    out_path = tmp_path / "hat.json"
    code, out, _ = run(capsys, "graph", "--boolean", "2", "--hat", "--out", str(out_path))
    assert code == 0
    g = LayeredGraph.from_json_dict(json.loads(out_path.read_text(encoding="utf-8")))
    assert g.height == 3 and "M" in {v for v, _ in g.vertices}


def test_cli_import_loads_no_test_only_modules():
    env = _src_env()
    probe = "import sys, splitkit.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded = proc.stdout.split()
    assert "splitkit.cli" in loaded and "splitkit.calibration" not in loaded and "splitkit.fixtures" not in loaded


def _start_up_modules(argv):
    """(exit code, stdout, modules `import splitkit.cli` adds, modules `main(argv)` then adds) in a fresh interpreter.

    `site` may have loaded some modules already, so only what the import
    and the one request add to sys.modules counts.
    """
    env = _src_env()
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import splitkit.cli\n"
        "imported = set(sys.modules) - before\n"
        f"code = splitkit.cli.main({argv!r})\n"
        "ran = set(sys.modules) - before - imported\n"
        "print(code, file=sys.stderr)\n"
        "print(*sorted(imported), file=sys.stderr)\n"
        "print(*sorted(ran), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    code, imported, ran = (set(line.split()) for line in proc.stderr.splitlines())
    return code, proc.stdout, imported, ran


_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

_START_UP_REQUESTS = [
    (("discrepancy", "--boolean", "3", "--field", "q"), lambda rep: rep["sides_agree"]),
    (("factor", str(_FIXTURES / "roots3.json")), lambda rep: rep["pass"]),
]


@functools.cache
def _start_up_probe(argv):
    return _start_up_modules(list(argv))


def _assert_start_up_loads_none_of(banned):
    for argv, passed in _START_UP_REQUESTS:
        code, out, imported, ran = _start_up_probe(argv)
        assert code == {"0"} and passed(json.loads(out)) and "splitkit.cli" in imported, argv
        assert not banned & imported, (argv, sorted(imported))
        assert not banned & ran, (argv, sorted(ran))


def test_cli_start_up_loads_no_dataclasses_inspect_or_typing():
    # every CLI request pays for what a fresh interpreter imports
    _assert_start_up_loads_none_of({"dataclasses", "inspect", "typing"})


def test_cli_plain_request_loads_no_argparse_gettext_or_locale():
    # a plain request is read off the option table; argparse, and the
    # gettext and locale modules its messages load, are for help and usage errors
    _assert_start_up_loads_none_of({"argparse", "gettext", "locale"})


@pytest.mark.skipif(not _BUILTIN_SHA256, reason="interpreter has neither _sha2 nor _sha256")
def test_cli_start_up_loads_no_hashlib_or_openssl():
    # the digest comes from CPython's built-in SHA-256; hashlib would map OpenSSL
    _assert_start_up_loads_none_of({"hashlib", "_hashlib", "_blake2", "ssl"})


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"source": "boolean", "n": 3},
        {"source": "graph", "graph": {"vertices": [{"id": "∅", "level": 0}, {"id": "⟨110⟩", "level": 1}]}},
        {"z": [1, "a"], "a": {"é": None, "b": True}},
        ["∅", "⟨110⟩", 0, -1],
    ],
)
def test_digest_is_a_truncated_sha256_of_sorted_json(obj):
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    assert _digest(obj) == hashlib.sha256(text.encode()).hexdigest()[:16]


_PINNED_DIGESTS = {
    ("mobius", "--boolean", "3"): "016b2c213b6f4f4c",
    ("mobius", "--graph", str(_FIXTURES / "boolean2.json")): "4b5d916657f1eef4",
    ("factor", str(_FIXTURES / "roots3.json")): "50fbb6837a6742aa",
}


def test_reports_keep_their_digests(capsys):
    for argv, digest in _PINNED_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["inputs"]["digest"] == digest, argv


def test_digest_falls_back_to_hashlib_without_builtin_hashes():
    # an interpreter built without CPython's built-in hashes has only hashlib
    env = _src_env()
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import splitkit.cli\n"
        "print('hashlib' in sys.modules)\n"
        f"for argv in {list(map(list, _PINNED_DIGESTS))!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        splitkit.cli.main(argv)\n"
        "    print(json.loads(buf.getvalue())['inputs']['digest'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", *_PINNED_DIGESTS.values()]


def _imports_outside(tree, allowed):
    """(module, line) of every absolute import in `tree` that no node in `allowed` holds."""
    inside = {id(node) for scope in allowed for node in ast.walk(scope)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`; hashlib loads OpenSSL and
    # argparse its message catalogues, so each stays where it is needed
    import splitkit

    builtin_hashes = {"_sha2", "_sha256"}
    for path in sorted(Path(splitkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, line in _imports_outside(tree, []):
            top = module.partition(".")[0]
            assert top in sys.stdlib_module_names or top in builtin_hashes, (path.name, line, module)
        fallbacks = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and node.type.id == "ImportError"
        ]
        parsers = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
        for module, line in _imports_outside(tree, fallbacks):
            assert module != "hashlib", (path.name, line)
        for module, line in _imports_outside(tree, [stmt for fn in parsers for stmt in fn.body]):
            assert module != "argparse", (path.name, line)


def test_reports_identical_across_processes_and_hash_seeds(tmp_path):
    outs = []
    for seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "splitkit.cli", "dual", "--boolean", "3", "--field", "gf2"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
