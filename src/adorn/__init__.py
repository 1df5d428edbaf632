"""adorn: derived-series computations for finitely presented groups.

Decides, within explicit resource bounds, whether the derived series of a
finitely presented group reaches a perfect group (the group is then
"adorable"), computes the degree of adorability, and ships the classical
worked families: free products, knot groups via Alexander polynomials, and
Seifert base-orbifold classification.

The names below resolve on first use (PEP 562): ``import adorn`` imports
no submodule, and ``adorn.derived_series`` imports :mod:`adorn.derived`
and what it needs.  Each access reads the name from its defining module
again; nothing is cached here, so a name patched in that module, as a
tracer does, is seen through the package too.
"""

import importlib

_EXPORTS = {  # defining module -> the names the package re-exports from it
    "abelian": "AbelianInvariants IntMatrix abelianization abelianization_data "
               "smith_normal_form",
    "alexander": "AlexanderError DeficiencyMismatch LaurentPoly NotKnotLike "
                 "alexander_polynomial fox_derivative knot_adorability_report",
    "cosets": "CosetTable InfiniteIndex commutator_coset_table todd_coxeter",
    "derived": "ADORABLE HALTED INCONCLUSIVE NON_ADORABLE AdorabilityWitness "
               "ChainNotNested FiltrationError NormalityFails QuotientNotAbelian "
               "SeriesVerdict StageReport TerminalNotPerfect derived_series "
               "verify_filtration",
    "fpgroup": "DEFAULT_BUDGET Budget CapExceeded GroupPresentation "
               "PresentationSyntaxError Word format_presentation format_word "
               "free_reduce parse_presentation tietze_simplify",
    "rewriting": "reidemeister_schreier rewrite_presentation subgroup_words",
    "zoo": "FAMILIES CannotCertifyFactorTriviality SeifertData SplittingDecl "
           "UnknownSolvabilityStep UnsupportedOrbifold classify_seifert "
           "free_product_verdict make splitting_verdict",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:  # a submodule not yet imported falls through to here too
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
