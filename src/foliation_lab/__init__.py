"""Exact local analysis of codimension-one holomorphic foliations.

The package works over explicit field towers (Q, one quadratic extension,
one transcendental parameter) with exact sparse polynomial and jet
arithmetic, and provides:

- reduction of plane 1-form singularities by blow-ups, with
  classification of the final points and of the reduction divisor;
- separatrix jets, the multiplicity identity, and second-type /
  generalized-curve verdicts in two variables;
- dimensional type, simple-model matching, section-based second-type
  tests and a blow-up script harness in three variables;
- Camacho-Sad, GSV and Baum-Bott indices with their sum theorems on the
  projective plane, and the logarithmic pole-degree criterion;
- a command-line interface emitting deterministic JSON reports.
"""

from .fields import (FieldDescriptor, FieldElement, FieldError,
                     FieldExtensionError, Inconclusive, WidenRequest)
from .forms import (CurveJet, DivisorBranch, LocalDivisor, OneForm2,
                    OneForm3, PrecisionError, integrable3, invariant_curve,
                    invariant_surface3, mu0, normalize2, normalize3, nu0)
from .poly import MPoly, OrderIndeterminate
from .blowup import blowup_curve3, blowup_point2, blowup_point3
from .reduce2d import (ClassCode, ReductionError, ReductionTree,
                       SingularityRecord, classify_point2, dual_graph,
                       is_generalized_curve2, is_second_type2,
                       seidenberg_reduce, trees_equivalent)
from .separatrix import (BranchJet, DicriticalInputError, IdentityReport,
                         SeparatrixSet, multiplicity_identity_check,
                         separatrices2, weak_graph_coefficients,
                         weak_separatrix_jet)
from .threefold import (InconclusiveError, Model3Match, SectionMap,
                        TheoremReport, Verdict3, dimensional_type,
                        match_simple_model3, pullback_section,
                        second_type3_via_sections, theorem_main_harness,
                        well_oriented3)
from .indices import (DegeneratePointError, IndexValue, LogarithmicData,
                      LogCriterionReport, PlaneSingularity,
                      PositiveDimensionalLocusError, ProjFoliation,
                      SingularBranchError, SumReport, bb_index, cs_index,
                      gsv_index, localize_at, logarithmic_build,
                      logarithmic_criterion, plane_singularities,
                      sum_theorem_check)
from .parser import InputSyntaxError, ParsedInput, parse_form

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
