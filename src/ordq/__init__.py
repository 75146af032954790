"""ordq: symbolic transfinite computations with oracle query ledgers.

The package loads its modules on first use (PEP 562): ``ordq.verify`` or
``from ordq import verify`` imports ``ordq.reductions`` then, and ``import
ordq`` alone imports none of them.  The set names (HFSet, SetCode, the
codecs, parse_hf and render_hf) come from ``ordq.hfsets``, which ordinal
work never loads.  Names are looked up in their module on every access and
never copied into the package, so a name patched in its module is what the
package hands out.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "ordcalc": (
        "OMEGA", "ONE", "ZERO", "Ordinal", "OrdinalDomainError",
        "OrdinalParseError", "add", "compare", "finite_part",
        "leading_exponent", "left_sub", "mul", "omega_power", "opow",
        "parse_ordinal", "render", "successor",
    ),
    "universe": (
        "CardinalStructure", "OutOfStructureError", "card_of", "explicit_list",
        "is_cardinal", "multiples_of_omega", "next_card_of",
        "next_limit_of_cardinals_above", "omega_powers",
    ),
    "hfsets": (
        "HFSet", "SetCode", "decode_set", "encode_hf", "hf", "parse_hf", "render_hf",
    ),
    "logic": (
        "Formula", "TruthEnv", "classify_level", "eval_formula",
        "formula_from_index", "formula_index", "parse_formula",
        "render_formula", "universe_of",
    ),
    "oracles": (
        "CardinalClassSet", "Effectivizer", "FiniteOrdinalSet",
        "NotRankedError", "OmegaMultiplesSet", "OracleTypeError", "OrdinalSet",
        "QueryLedger", "RunEntry", "ScriptedEffectivizer", "ScriptExhausted",
        "ScriptMismatch", "SingleEntry", "make_effectivizer",
    ),
    "tam": ("Program", "RunResult", "replay", "run"),
    "reductions": (
        "Approximator", "BoundForm", "CATALOG_NAMES", "CompositeEffectivizer",
        "ReductionSpec", "ReductionTypeError", "Report", "catalog", "compose",
        "delegate_spec", "verify",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "selftest")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_submodule(module), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name):
    # imported the way an import statement imports, which -X importtime
    # logs; what importlib.import_module imports goes unlogged
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
