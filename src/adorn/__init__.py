"""adorn: derived-series computations for finitely presented groups.

Decides, within explicit resource bounds, whether the derived series of a
finitely presented group reaches a perfect group (the group is then
"adorable"), computes the degree of adorability, and ships the classical
worked families: free products, knot groups via Alexander polynomials, and
Seifert base-orbifold classification.
"""

from .abelian import (AbelianInvariants, IntMatrix, abelianization,
                      abelianization_data, smith_normal_form)
from .alexander import (AlexanderError, DeficiencyMismatch, LaurentPoly,
                        NotKnotLike, alexander_polynomial, fox_derivative,
                        knot_adorability_report)
from .cosets import (CapExceeded, CosetTable, IncompleteTable, InfiniteIndex,
                     commutator_coset_table, todd_coxeter)
from .derived import (ADORABLE, HALTED, INCONCLUSIVE, NON_ADORABLE,
                      AdorabilityWitness, ChainNotNested, FiltrationError,
                      NormalityFails, QuotientNotAbelian, SeriesVerdict,
                      StageReport, TerminalNotPerfect, derived_series, doa,
                      verify_filtration)
from .fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation,
                      PresentationSyntaxError, Word, cyclically_reduce,
                      free_reduce, format_presentation, format_word,
                      parse_presentation, tietze_simplify)
from .rewriting import (reidemeister_schreier, rewrite_presentation,
                        schreier_transversal, subgroup_word)
from .zoo import (FAMILIES, CannotCertifyFactorTriviality, SeifertData,
                  SplittingDecl, UnknownSolvabilityStep, UnsupportedOrbifold,
                  classify_seifert, free_product_verdict, make,
                  splitting_verdict)

__version__ = "0.1.0"
