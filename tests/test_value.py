"""Every value type keeps the one immutability rule of `splitkit.value.Value`."""

import ast
from pathlib import Path

import pytest

import splitkit
from splitkit.dualalg import numerical_koszul_check, vertex_algebra_presentation
from splitkit.exactlinalg import DenseMatrix, FieldSpec
from splitkit.fixtures import boundary_delta3, nonuniform_graph
from splitkit.laygraph import boolean_graph, validate
from splitkit.ncfactor import RootSystem, check_all_orderings, check_diamonds, genericity_check, viete_coefficients
from splitkit.seriespoly import IntPolynomial
from splitkit.topo import predict_koszulity
from splitkit.value import Value


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _roots():
    return RootSystem.from_scalars([1, 2, 3])


# class name -> fresh instances, built the ways the package builds them
_INSTANCES = {
    "FieldSpec": lambda: (FieldSpec(5), FieldSpec()),
    "DenseMatrix": lambda: (DenseMatrix([[1, "1/2"], [0, 3]]), DenseMatrix.identity(2) * DenseMatrix([["2/3"], [1]])),
    "LayeredGraph": lambda: (boolean_graph(2), nonuniform_graph()),
    "ValidationReport": lambda: (validate(boolean_graph(2)), validate(nonuniform_graph())),
    "SimplicialComplex": lambda: (boundary_delta3(),),
    "KoszulityPrediction": lambda: (predict_koszulity(boundary_delta3(), FieldSpec(2)),),
    "QuadraticPresentation": lambda: (vertex_algebra_presentation(boolean_graph(2), FieldSpec(2)),),
    "KoszulVerdict": lambda: (numerical_koszul_check(boolean_graph(2), FieldSpec(2)),),
    "RootSystem": lambda: (_roots(),),
    "GenericityReport": lambda: (genericity_check(_roots()), genericity_check(RootSystem.from_scalars([1, 1]))),
    "MatrixPolynomial": lambda: (viete_coefficients(_roots(), (1, 2, 3)),),
    "OrderingCheck": lambda: (check_all_orderings(_roots()),),
    "DiamondCheck": lambda: (check_diamonds(_roots()),),
    "IntPolynomial": lambda: (IntPolynomial([1, 2]), IntPolynomial()),
}
# lazy cache slot -> the accessor that fills it
_CACHES = {
    "_desc": lambda g: g.descendants(),
    "_faces": lambda x: x.faces,
    "_star": lambda x: x.star,
    "_table": lambda rs: rs.table,
}


@pytest.mark.parametrize("cls", sorted(_subclasses(Value), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_value_slot_is_assigned_once(cls):
    assert cls.__name__ in _INSTANCES, "give the new value type an instance here"
    for obj in _INSTANCES[cls.__name__]():
        assert type(obj) is cls
        for name in cls.__slots__:
            if name in _CACHES:
                assert not hasattr(obj, name), (cls.__name__, name)  # a cache starts unset
                filled = _CACHES[name](obj)
                assert _CACHES[name](obj) is filled and getattr(obj, name) is filled
            before = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(obj, name, None)
            assert getattr(obj, name) is before, (cls.__name__, name)
        with pytest.raises(AttributeError):
            obj.unlisted = None
    if cls.__init__ is Value.__init__:  # a store-only type takes exactly one value per slot
        n = len(cls.__slots__)
        for wrong in (n - 1, n + 1):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} values, got {wrong}$"):
                cls(*[None] * wrong)


def test_only_value_defines_setattr():
    # the immutability rule lives in one place
    defined = [
        (path.stem, node.name)
        for path in sorted(Path(splitkit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    ]
    assert defined == [("value", "Value")]
