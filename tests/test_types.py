import pytest

from eqcheck import types
from eqcheck.types import (
    INT, MeasureShapeError, RefinementWfError, SortData, SortProof, SortVar,
    TypeCheckError, check_refinement_wf, subst_sort,
)
from eqcheck.syntax import NO_SPAN, Span

from conftest import LIST_BASICS, env_of


def test_length_signature_accepted(list_env):
    fi = list_env.funs["length"]
    assert fi.is_measure
    assert fi.param_sorts == (SortData("List", (list_env.funs["length"].param_sorts[0].args[0],)),)
    assert fi.result_sort == INT


def test_measure_registry(list_env):
    assert list_env.measures_of == {"List": ["length"]}


def test_measure_with_two_arguments_rejected():
    src = """\
measure append
append : xs:(List a) -> ys:(List a) -> List a
append [] ys = ys
append (x:xs) ys = x : append xs ys
"""
    with pytest.raises(MeasureShapeError, match="exactly one"):
        env_of(src)


def test_measure_deep_pattern_rejected():
    src = """\
measure twoLong
twoLong : xs:(List a) -> Int
twoLong [] = 0
twoLong (_:(_:_)) = 2
"""
    with pytest.raises(MeasureShapeError):
        env_of(src)


def test_measure_calling_nonmeasure_rejected():
    src = LIST_BASICS + """\

measure revLen
revLen : xs:(List a) -> Int
revLen [] = 0
revLen (_:xs) = 1 + length (reverse xs)
"""
    with pytest.raises(MeasureShapeError, match="primitives and measures"):
        env_of(src)


def test_constructor_arity_sort_clash():
    with pytest.raises(TypeCheckError, match="expected sort"):
        env_of("f : x:Int -> List Int\nf x = Cons 1 2\n")


def test_refinement_mentioning_unlifted_rejected():
    src = """\
helper : x:Int -> Int
helper x = x + 1
g : x:Int -> {v:Int | v == helper x}
g x = x + 1
"""
    with pytest.raises(RefinementWfError, match="helper"):
        check_refinement_wf(env_of(src))


def test_reflected_names_allowed_in_refinements():
    src = LIST_BASICS + """\

revApp : xs:(List a) -> ys:(List a) -> {zs:(List a) | zs == append (reverse xs) ys}
revApp xs ys = append (reverse xs) ys
"""
    check_refinement_wf(env_of(src))


def test_trivial_refinement_ok():
    check_refinement_wf(env_of("t : x:Int -> {v:Int | true}\nt x = x\n"))


def test_partial_application_rejected():
    src = LIST_BASICS + "\nbad : xs:(List a) -> List a\nbad xs = append xs\n"
    with pytest.raises(TypeCheckError, match="partial application|argument"):
        env_of(src)


def test_unbound_variable_rejected():
    with pytest.raises(TypeCheckError, match="unbound"):
        env_of("f : x:Int -> Int\nf x = y\n")


def test_zero_argument_function_rejected():
    with pytest.raises(TypeCheckError, match="zero-argument"):
        env_of("c : {v:Int | v == 5}\nc = 5\n")


def test_nonlinear_multiplication_rejected():
    with pytest.raises(TypeCheckError, match="literal operand"):
        env_of("f : x:Int -> y:Int -> Int\nf x y = x * y\n")


def test_literal_multiplication_accepted():
    env = env_of("f : x:Int -> Int\nf x = 2 * x + x * 3\n")
    assert env.funs["f"].result_sort == INT


def test_plain_body_sort_error_message():
    # a plain body is unified with the result sort at the term's own span,
    # and draws no sort variable of its own
    with pytest.raises(TypeCheckError) as e:
        env_of("f : x:Int -> Int\nf x = (Nil)\n")
    assert str(e.value) == "2:8: body of f: expected sort Int, found List ?1"


def test_sort_substitution_shares_unchanged_sorts():
    inner = SortData("List", (SortVar("b"),))
    nested = SortData("Pair", (SortVar("a"), inner))
    assert subst_sort(nested, {}) is nested
    assert subst_sort(nested, {"c": INT}) is nested
    out = subst_sort(nested, {"a": INT})
    assert out == SortData("Pair", (INT, inner)) and out.args[1] is inner


def test_type_error_carries_line_and_col_only_with_a_span():
    assert str(TypeCheckError("bad", Span(4, 2, 4, 7))) == "4:2: bad"
    assert str(TypeCheckError("bad", NO_SPAN)) == "bad"


def test_sort_error_under_not_names_the_dual_relation():
    # `not` is stored pushed into its atom, which keeps its span
    with pytest.raises(TypeCheckError) as e:
        env_of("f : xs:(List Int) -> ys:(List Int) -> {v:Int | not (xs <= ys)}\n"
               "f xs ys = 0\n")
    assert str(e.value) == "1:53: operand of >: expected sort Int, found List Int"


def test_qed_chain_requires_proof_result():
    src = LIST_BASICS + """\

bad : xs:(List a) -> List a
bad xs
  =   xs
  ==. xs
  *** QED
"""
    with pytest.raises(TypeCheckError, match="QED"):
        env_of(src)


def test_chain_steps_must_share_a_sort():
    src = LIST_BASICS + """\

bad : xs:(List a) -> {v:Proof | xs == xs}
bad xs
  =   xs
  ==. length xs
  *** QED
"""
    with pytest.raises(TypeCheckError):
        env_of(src)


def test_hints_must_be_proofs():
    src = LIST_BASICS + """\

bad : xs:(List a) -> {v:Proof | xs == xs}
bad xs
  =   xs
  ==. xs
      ? length xs
  *** QED
"""
    with pytest.raises(TypeCheckError, match="hint"):
        env_of(src)


def test_ple_annotation_needs_something_to_check():
    src = """\
ple id'
id' : x:Int -> Int
id' x = x
"""
    with pytest.raises(TypeCheckError, match="ple"):
        env_of(src)


def test_annotation_target_must_exist():
    with pytest.raises(TypeCheckError, match="undeclared"):
        env_of("reflect ghost\nf : x:Int -> Int\nf x = x\n")


def test_duplicate_declaration_rejected():
    src = "f : x:Int -> Int\nf x = x\n\nf : y:Int -> Int\nf y = y\n"
    with pytest.raises(TypeCheckError, match="redeclared"):
        env_of(src)


def test_proof_result_sort():
    src = LIST_BASICS + """\

lemma : xs:(List a) -> {v:Proof | length xs >= 0}
lemma xs = ()
"""
    env = env_of(src)
    assert isinstance(env.funs["lemma"].result_sort, SortProof)


def test_polymorphic_instantiation_at_int():
    src = LIST_BASICS + "\nuse : t:Int -> List Int\nuse t = append [t] [1, 2]\n"
    env = env_of(src)
    assert env.funs["use"].result_sort == SortData("List", (INT,))


def test_nested_sort_mismatch_message():
    # the message names the sorts fully resolved at the level that clashes
    with pytest.raises(TypeCheckError) as e:
        env_of("f : x:Int -> {v:Proof | [[1]] == [[true]]}\nf x = ()\n")
    assert str(e.value) == "1:25: operands of ==: expected sort Int, found Bool"
    with pytest.raises(TypeCheckError) as e:
        env_of("f : x:Int -> {v:Proof | [[1]] == [true]}\nf x = ()\n")
    assert str(e.value) == "1:25: operands of ==: expected sort List Int, found Bool"


def test_list_literal_resolves_linearly(monkeypatch):
    calls = [0]
    resolve = types._Unifier.resolve

    def counting_resolve(self, s):
        calls[0] += 1
        return resolve(self, s)

    monkeypatch.setattr(types._Unifier, "resolve", counting_resolve)
    counts = []
    for n in (200, 400):
        calls[0] = 0
        env_of(f"f : x:Int -> List Int\nf x = [{', '.join(['1'] * n)}]\n")
        counts.append(calls[0])
    assert counts[1] <= 2.2 * counts[0], counts
