"""Step functions with certified integration, integral posets, elementary
functions as enclosures, and gentle-quiver global dimension three ways.

Only :mod:`stepquiver.errors` loads with the package.  Every other public
name, and every submodule, is imported on first use by the module
``__getattr__`` below (PEP 562), so ``import stepquiver`` and the quiver
code paths that do no numerics never load numpy.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F401,F403

# submodule -> the public names it provides
_EXPORTS = {
    "measure": """AffineMap Box DyadicScheme Interval MeasurableSet StieltjesMeasure
        box box1 identity_measure lebesgue_measure log_power_measure make_interval
        measurable_set normalize_set segment""",
    "stepfn": """FunctionTuple StepFunction ae_equal direct_sum_norm eval_step indicator
        juxtapose linear_combine locate p_norm restrict zero_function""",
    "integrate": """Enclosure VarIntegralFn convex_enclosure eta integrate_enclosure
        integrate_step stieltjes_integrate var_upper_integral""",
    "iposet": """CaseTag IPosetElement SigmaPair UpperLimitRecord add_elements
        build_iposet classify_case game_map game_natural lambda_action order_leq
        poset_element scalar_action upper_limit_record""",
    "elemfn": "K_constant acos_cat asin_cat cos_cat exp_cat k_reference ln_cat sin_cat",
    "quiver": """AlgebraElement Arrow GentlePresentation Quiver Thread ValidationReport
        enumerate_threads forb_perm_bijection gldim_report global_dimension
        integer_from_float koszul_dual koszul_report multiple_integral_affine_unit_box
        path_length_via_integral path_source_weights thread_names threads_report validate_gentle
        vertex_hom vertex_hom_q w_projection""",
    "qv": "QuiverDoc emit_dsl emit_koszul_dual parse_quiver_dsl",
    "dsl": "FnExpr ensure_proper monotone_pieces parse_fn_expr step_literal",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = [n for n in globals() if not n.startswith("_")] + [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _EXPORTS.keys() | _HOME.keys())
