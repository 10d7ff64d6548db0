"""Exact symbolic realization and verification engine for the quantum
superalgebra of type sl(M+1|N+1) as q-difference operators on a
super-polynomial coordinate space."""

from .scalars import RingElem, qnum, qpow
from .superpoly import CoordSystem, coord_parity
from .operators import (LinForm, OpExpr, ContextMismatch, MixedParity,
                        graded_commutator, first_failure, op_eq_on_basis,
                        basis_monomials)
from .algebra import (RootData, GeneratorSet, build_root_data,
                      build_classical, build_quantum,
                      check_linform_identities)
from .verify import run_full, VerificationReport

__version__ = "0.1.0"
