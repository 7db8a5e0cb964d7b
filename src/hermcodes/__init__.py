"""Maximum additive Hermitian rank-metric codes: exact construction,
analysis, and verification at desk scale."""

from .gf import FieldTower, find_alpha, find_gamma, make_tower
from .linpoly import GQReport, LinPoly, QPoly, gq_verify, reindex_to_qpoly
from .hermitian import (HermCode, HermMatrix, bilinear_b, code_from_dict,
                        code_from_matrix_set, code_to_dict, dual_code,
                        from_free_coeffs, full_space, gram_matrix,
                        hermitian_basis, is_hermitian,
                        matrix_code_rank_distribution, poly_from_gram,
                        trace_poly)
from .scheme import (BudgetExceededError, CycloInt, Eigenvalues, char_value,
                     delta_identity_holds, design_by_extension_count,
                     design_strength, dual_inner_distribution, eigenvalues,
                     inner_distribution, neg_q_binom, pairing,
                     theorem_distribution)
from .constructions import (ConstructionParams, ParameterError, build,
                            build_E, build_H, build_Htilde,
                            build_Htilde_dual, build_M)
from .equivalence import (EndoSolution, Fingerprint, a_pow_b,
                          check_independent_support, compare_fingerprints,
                          invariant_fingerprint, kernel_K, left_idealiser,
                          right_idealiser, support_containment,
                          universal_support)

__version__ = "0.1.0"
