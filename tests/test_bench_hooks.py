"""The benchmark's tracer wraps eqcheck entry points by name; a rename would
silently drop their spans and counters.  Read bench/tracer.py (without
importing it) and check that everything it wraps or reads still exists."""

import ast
import importlib

from eqcheck.checker import CheckConfig, Obligation, build_decl_obligations
from eqcheck.logic import SolverState, _Lia
from eqcheck.wf import clause_contexts

from conftest import LIST_BASICS, ROOT, env_of

TRACER = ast.parse((ROOT / "bench" / "tracer.py").read_text())


def tracer_constant(name):
    for node in TRACER.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py defines no {name}")


def test_spanned_entry_points_exist():
    spanned = tracer_constant("SPANNED")
    assert spanned
    for mod_name, attr, _ in spanned:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}")


def test_counted_wf_functions_exist():
    wf = importlib.import_module("eqcheck.wf")
    counted = {node.attr for node in ast.walk(TRACER)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "wf"}
    assert "clause_leaves" in counted
    for attr in counted:
        assert callable(getattr(wf, attr, None)), f"eqcheck.wf.{attr}"


def test_lia_methods_exist():
    for method in tracer_constant("LIA_METHODS"):
        assert callable(getattr(_Lia, method, None)), f"_Lia.{method}"


def test_solver_state_counters_exist():
    st = SolverState(env_of(""))
    for key in tracer_constant("STATE_COUNTERS"):
        assert key in st.stats
    assert hasattr(st, "nodes") and hasattr(st, "fuel_exhausted")


def test_vcgen_result_starts_with_obligations():
    # the tracer counts obligations as len(result[0])
    env = env_of(LIST_BASICS)
    fi = env.funs["append"]
    result = build_decl_obligations(fi, clause_contexts(fi, env), CheckConfig())
    assert result[0] and all(isinstance(ob, Obligation) for ob in result[0])
