"""The package namespace: every public name resolves, lazily, and is listed."""

from __future__ import annotations

import pytest

import stepquiver

# The public names of ``stepquiver`` when its __init__ still imported every
# submodule eagerly, with the ``annotations`` flag its star import of
# ``errors`` carried along left out; since then ``doc_from_presentation`` has
# gone and the output writers ``threads_report``, ``koszul_report`` and
# ``emit_koszul_dual`` have come.
PUBLIC = set("""
AffineMap AlgebraElement AmbientMismatchError ArityMismatchError Arrow
BackingMismatchError BadExponentError BadPiecesError BijectionFailureError
Box CaseTag DepthTooLargeError DimensionMismatchError
DomainAnnotationMissingError DomainMismatchError DslSyntaxError
DuplicateArrowError DyadicScheme EmptyWeightsError Enclosure FnExpr
FunctionTuple GentlePresentation IPosetElement InfiniteDimensionalError
InfiniteGlobalDimensionError Interval InversionFailedError K_constant
MeasurableSet MethodDisagreementError NonComposableRelationError
NonFiniteError NonIntegerResultError NonQuadraticRelationError
NotGentleError NotMonotoneError NotPermittedError OrderViolationError
OutOfAmbientError OutOfDomainError PathNotInPresentationError Quiver
QuiverDoc SigmaPair StepFunction StepQuiverError StieltjesMeasure
TauNotHomomorphismError Thread ToleranceUnreachedError UnknownArrowError
UnknownVertexError UpperLimitRecord ValidationReport VarIntegralFn acos_cat
add_elements ae_equal asin_cat box box1 build_iposet
classify_case convex_enclosure cos_cat direct_sum_norm
dsl elemfn emit_dsl emit_koszul_dual ensure_proper enumerate_threads
errors eta eval_step exp_cat forb_perm_bijection game_map game_natural
gldim_report global_dimension identity_measure indicator integer_from_float
integrate integrate_enclosure integrate_step iposet juxtapose k_reference
koszul_dual koszul_report lambda_action lebesgue_measure linear_combine ln_cat locate
log_power_measure make_interval measurable_set measure monotone_pieces
multiple_integral_affine_unit_box normalize_set order_leq p_norm
parse_fn_expr parse_quiver_dsl path_length_via_integral path_source_weights
poset_element quiver restrict scalar_action segment sin_cat step_literal
stepfn stieltjes_integrate threads_report upper_limit_record validate_gentle
var_upper_integral vertex_hom vertex_hom_q w_projection zero_function
__version__
""".split())


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_name_resolves_and_is_listed(name):
    assert getattr(stepquiver, name) is not None
    assert name in dir(stepquiver)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stepquiver.no_such_name
    assert not hasattr(stepquiver, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from stepquiver import *", namespace)
    assert PUBLIC - {"__version__"} <= namespace.keys()
