"""The README cites code by backticked dotted names (`module.name`,
`Class.name`) and by bare private names (`_name`); each must name something
that exists, so a change that deletes or renames a cited name fails here
until the README follows.  Its command-line examples must parse."""

import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import polypoisson
from polypoisson import cli

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
BARE_PRIVATE = re.compile(r"`(_\w+)`")
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


def resolves_bare(name: str) -> bool:
    """The name is an attribute of a package module, or of a class defined in one."""
    for module in MODULES.values():
        classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        if any(hasattr(obj, name) for obj in (module, *classes)):
            return True
    return False


def test_readme_dotted_names_resolve():
    names = sorted(set(DOTTED.findall(README.read_text(encoding="utf-8"))))
    assert names
    assert [n for n in names if not resolves(n)] == []


def test_readme_bare_private_names_resolve():
    names = sorted(set(BARE_PRIVATE.findall(README.read_text(encoding="utf-8"))))
    assert "_pi_template" in names
    assert [n for n in names if not resolves_bare(n)] == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("Poly.diff") and resolves("lattice_ops._int_convolve") and resolves("polypoisson.cli")
    assert resolves("PerSeq.from_json") and resolves("PolyTensor.to_json") and resolves("OpTensor.to_json")
    assert resolves("lattice_ops.shift_kernel")
    deleted = (
        "Poly.eval_grad", "Poly.eval", "linalg.nullspace", "Polygon.to_json", "PolyTensor.from_json",
        "OpTensor.from_json", "_FieldTensor._from_header", "DPoly.from_json", "TheoremReport.to_json",
        "coord_reduction._LINEAR_WORDS", "coord_reduction.build_murho", "coord_reduction.build_abrho",
        "coord_reduction._exchange_tensor", "DPoly", "lattice_ops.DPoly", "Kernel.delta", "Kernel.zero",
        "PerSeq.delta", "Poly.degree_in", "gen_nu._require_period", "coord_reduction._require_period",
        "lattice_ops.kernel_from_dpoly", "coord_reduction._K", "coord_reduction._Kinv",
        "Fields", "coord_reduction.Fields", "Fields.point", "ProjPolygon", "exchange_algebra.ProjPolygon",
        "ProjPolygon.from_polygon", "dynamics.gf_check", "dynamics.lie_deform", "LinearityViolated",
        "dynamics.LinearityViolated", "Polygon.vertex", "Polygon.wronskian_at", "Polygon.require_nondegenerate",
        "exchange_algebra.wronskian", "coord_reduction._int_eval", "lattice_ops.solve_phi",
        "lattice_ops.NoSolution", "linalg.dot",
    )
    for name in deleted + ("nomodule.name", "_DualCtx.nothing"):
        assert not resolves(name), name
    assert resolves_bare("_pi_template") and resolves_bare("_linear_words") and not resolves_bare("_no_such_name")


def test_public_names_are_listed():
    # adding or deleting a public name shows in the diff of this list
    assert sorted(polypoisson.__all__) == [
        "BracketSpec", "ConstraintNotSecondClass", "DegeneratePolygon", "GaugeInconsistent", "Kernel",
        "NonUniqueGauge", "OddKernel", "OpTensor", "PerSeq", "PolyTensor",
        "Polygon", "SingularOperator", "TheoremReport", "TransferMatrix", "casimir_coeffs", "casimir_residual",
        "check_theorem", "closed_tensor", "commute_check", "compatibility", "convolve_apply", "coord_reduction",
        "coords", "default_rc", "det_transfer", "dirac_reduce", "dynamics", "exchange_algebra", "gauge_normalize",
        "gen_nu", "group_act", "ham_vf", "integrate", "invert", "jacobiator", "lattice_ops",
        "lifted_flow_residual", "lifted_vf", "linalg", "multipoly", "oracle_match", "phi_special",
        "projective_bracket", "pushforward_check", "quad_coeff", "random_polygon", "rat", "rat_str",
        "shift_kernel", "sum_field", "toda_dirac_vs_ftv", "trace_transfer", "trajectory_csv",
        "transfer_invariants", "verify_structure", "verify_ybe",
    ]


def test_readme_command_lines_parse():
    # each `polypoisson ...` line of the "Command line" block parses and
    # names a verb; nothing is run
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("polypoisson ")]
    assert len(lines) >= 9
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.verb in cli.VERBS, line
