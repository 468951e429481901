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
                     normal_order, ss_vectors, w_correspondence)
from .cdet import (DiffOp, GeneratorTable, JacobianCertificate, UPoly,
                   column_determinant, in_window, jacobian_independence,
                   miura_generators, miura_image, operator_matrix, w_generators)
from .centralizer import (BasisElt, Partition, all_partitions, bracket,
                          centralizer_basis, critical_form, lie_bracket,
                          trace_form, upper_basis)
from .diffpoly import DiffPoly, DiffVar
from .pva import (AxiomSuiteReport, MembershipMode, MembershipResult,
                  generator_bracket, jacobi_defect, lambda_bracket,
                  lambda_bracket_gen, parabolic_project, pva_axiom_suite,
                  w_bracket, w_membership)

__version__ = "0.1.0"

__all__ = [
    "AxiomSuiteReport", "BasisElt", "CenterCheck", "CorrespondenceReport",
    "DiffOp", "DiffPoly", "DiffVar", "GeneratorTable", "JacobianCertificate",
    "LoopMode", "MembershipMode", "MembershipResult", "Partition", "UPoly",
    "VacuumVector", "act_mode", "all_partitions", "bracket", "center_check",
    "centralizer_basis", "column_determinant", "critical_form",
    "generator_bracket", "hc_project", "in_window", "jacobi_defect",
    "jacobian_independence", "lambda_bracket", "lambda_bracket_gen",
    "lie_bracket", "loop_realization", "miura_generators", "miura_image",
    "normal_order", "operator_matrix", "parabolic_project", "pva_axiom_suite",
    "ss_vectors", "trace_form", "upper_basis", "w_bracket", "w_correspondence",
    "w_generators", "w_membership",
]
