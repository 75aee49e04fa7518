"""Exact homological invariants of finite-dimensional quiver algebras,
their corner algebras, and the eventual comparison of their Ext rings."""

from .algebra import (AdmissibilityError, AlgebraElement, AlgebraPresentation,
                      NormalFormEngine, build_engine)
from .algfile import (AlgebraFileError, format_algebra, parse_algebra,
                      parse_algebra_file)
from .comparison import (ThresholdData, compute_abc, finiteness_and_growth_report,
                         pd_equivalence_report, restricted_ext_table,
                         verify_comparison, verify_product_compatibility)
from .corner import (CornerPresentation, IdempotentPair, apply_F, corner_algebra,
                     f_lambda_e_module, gexact_condition, is_H_exact,
                     pair_from_presentation)
from .ext import (ExtClass, ExtTable, ext_table, generation_window_check,
                  gk_estimate, gk_estimate_from_dims, lift_cocycle,
                  yoneda_product)
from .fields import QQ, PrimeField, RationalField, field_from_name
from .modules import (ModuleMap, Projective, Representation, dual_to_opposite,
                      hom_space, module_iso_test, projective_cover,
                      projective_module, semisimple_top, shift_rep,
                      simple_module, zero_module)
from .quiver import Arrow, Path, PresentationError, Quiver, compose, vertex_path
from .resolution import (DimVerdict, MinimalResolution, belongs_to,
                         combine_verdicts, global_dimension, injective_dimension,
                         minimal_resolution, projective_dimension, simple_resolutions)

__version__ = "0.1.0"
