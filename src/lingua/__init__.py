"""Lingua: a small language with structural types, integrity-constraint
yokes, McCarthy three-valued logic and error-transparent evaluation.

The names in `__all__` are exported lazily (PEP 562): `import lingua`
loads no submodule, and the first use of a name imports the module that
defines it.  So `lingua check`, which needs only the front end, never
loads the evaluator.
"""

_EXPORTS = {
    "diagnostics": "LinguaParseError ParseDiagnostic SourceSpan",
    "kernel": "AbstractError Composite LangType Limits Number OMEGA TT Transfer Value"
    " apply_transfer clan_bo_member clan_ty_member coherent oversized",
    "parser": "parse_any parse_data_expression parse_program parse_transfer_expression"
    " parse_type_expression restore_expression",
    "printer": "ast_dump print_concrete",
    "semantics": "Evaluator OutOfFuel eval_source_expression run_program run_source",
    "state": "State bind_variable empty_state is_error load_error lookup_procedure"
    " lookup_type lookup_variable",
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULES)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
