"""Coefficient machinery for a one-parameter class of normalized analytic
functions on the unit disk: truncated series algebra with reversion,
Schwarz-jet parameterization, closed-form inverse coefficients, and
independent verification of the sharp bounds on the first inverse
coefficients and the Fekete-Szego functional."""

from .scalars import EXACT, FLOAT, QComplex, class_parameter
from .series import (TruncatedSeries, inverse_coeffs_closed, inverse_from_zf,
                     require_normalized, revert, zf_jet)
from .schwarz import BOUNDARY_TOL, SchwarzJet, c2_disks, c3_disk, is_admissible
from .ulambda import (MembershipVerdict, corner_jet, defect, direct_coeffs,
                      extremal_function, extremal_inverse, fekete_szego, fekete_szego_bound,
                      inverse_coeffs, inverse_coeffs_by_reversion, inverse_from_jet,
                      inverse_weights, membership_profile, membership_scan,
                      subordination_witness, theoretical_bounds, zf_from_schwarz)
from .verifier import (BoundReport, SearchConfig, exact_proofs, reports_to_csv, reports_to_json,
                       scan_lambda, sharpness_claimed)

__version__ = "0.1.0"
