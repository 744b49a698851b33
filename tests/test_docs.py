"""The README cites code by backticked dotted names (`module.name`,
`Class.name`); each must name something that exists, so a change that
deletes or renames a cited name fails here until the README follows."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import polypoisson

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULES = {
    m.name: importlib.import_module(f"polypoisson.{m.name}")
    for m in pkgutil.iter_modules(polypoisson.__path__)
    if m.name != "__main__"
}


def resolves(dotted: str) -> bool:
    """The head is the package, one of its modules, a class defined in one
    of them, or else a module outside the package (`fractions`); each later
    part is an attribute of what precedes it."""
    head, *rest = dotted.split(".")
    if head == "polypoisson":
        obj = polypoisson
    elif head in MODULES:
        obj = MODULES[head]
    else:
        classes = [c for m in MODULES.values() if inspect.isclass(c := getattr(m, head, None))]
        if classes:
            obj = classes[0]
        else:
            try:
                obj = importlib.import_module(head)
            except ImportError:
                return False
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_dotted_names_resolve():
    names = sorted(set(DOTTED.findall(README.read_text(encoding="utf-8"))))
    assert names
    assert [n for n in names if not resolves(n)] == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("Poly.diff") and resolves("lattice_ops._int_convolve") and resolves("polypoisson.cli")
    assert resolves("PerSeq.from_json") and resolves("PolyTensor.to_json") and resolves("OpTensor.to_json")
    deleted = (
        "Poly.eval_grad", "Poly.eval", "linalg.nullspace", "Polygon.to_json", "PolyTensor.from_json",
        "OpTensor.from_json", "_FieldTensor._from_header", "DPoly.from_json", "TheoremReport.to_json",
    )
    for name in deleted + ("nomodule.name", "_DualCtx.nothing"):
        assert not resolves(name), name
