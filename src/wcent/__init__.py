"""Exact W-algebras for centralizers of nilpotent matrices.

For a partition lam of N, the centralizer of a nilpotent matrix of Jordan
type lam carries a classical W-algebra whose generators come from a column
determinant, and the affinization of the centralizer has a large centre at
the critical level spanned by Segal-Sugawara vectors.  This package builds
both sides exactly over the rationals and verifies that the Harish-Chandra
projections of the Segal-Sugawara vectors realize the Miura images of the
W-algebra generators.
"""

from .affine import (CenterCheck, CorrespondenceReport, LoopMode, VacuumVector,
                     act_mode, center_check, hc_project, loop_realization,
                     normal_order, ss_matrix, ss_vectors, w_correspondence)
from .cdet import (DiffOp, GeneratorTable, JacobianCertificate, UPoly,
                   column_determinant, generator_window, in_window,
                   jacobian_independence, miura_generators, miura_image,
                   w_generator_matrix, w_generators)
from .centralizer import (BasisElt, Partition, all_partitions, bracket,
                          cartan_basis, centralizer_basis, centralizer_dim,
                          critical_form, lie_bracket, lower_basis,
                          parabolic_basis, parse_basis_elt, trace_form,
                          upper_basis)
from .diffpoly import DiffPoly, DiffVar
from .pva import (AxiomSuiteReport, MembershipMode, MembershipResult,
                  ProjectionConfig, generator_bracket, jacobi_defect,
                  lambda_bracket, lambda_bracket_gen, parabolic_project,
                  pva_axiom_suite, w_bracket, w_membership)

__version__ = "0.1.0"

__all__ = [
    "AxiomSuiteReport", "BasisElt", "CenterCheck", "CorrespondenceReport",
    "DiffOp", "DiffPoly", "DiffVar", "GeneratorTable", "JacobianCertificate",
    "LoopMode", "MembershipMode", "MembershipResult", "Partition",
    "ProjectionConfig", "UPoly", "VacuumVector", "act_mode", "all_partitions",
    "bracket", "cartan_basis", "center_check", "centralizer_basis",
    "centralizer_dim", "column_determinant", "critical_form",
    "generator_bracket", "generator_window", "hc_project", "in_window",
    "jacobi_defect", "jacobian_independence", "lambda_bracket",
    "lambda_bracket_gen", "lie_bracket", "loop_realization", "lower_basis",
    "miura_generators", "miura_image", "normal_order", "parabolic_basis",
    "parabolic_project", "parse_basis_elt", "pva_axiom_suite", "ss_matrix",
    "ss_vectors", "trace_form", "upper_basis", "w_bracket", "w_correspondence",
    "w_generator_matrix", "w_generators", "w_membership",
]
