"""Coefficient machinery for a one-parameter class of normalized analytic
functions on the unit disk: truncated series algebra with reversion,
Schwarz-jet parameterization, closed-form inverse coefficients, and
independent verification of the sharp bounds on the first inverse
coefficients and the Fekete-Szego functional."""

from .scalars import EXACT, FLOAT, QComplex, class_parameter
from .series import TruncatedSeries, inverse_coeffs_closed, require_normalized, revert, zf_jet
from .schwarz import (BOUNDARY_TOL, SchwarzJet, c2_disks, c3_disk, is_admissible,
                      sample_jet_arrays, sample_jets)
from .ulambda import (MembershipVerdict, corner_jet, defect, direct_coeffs,
                      extremal_function, extremal_inverse, fekete_szego, fekete_szego_bound,
                      fekete_szego_regrouped, inverse_coeffs, inverse_coeffs_by_reversion,
                      inverse_from_jet, inverse_weights, membership_profile, membership_scan,
                      omega_series, series_from_schwarz, sigma, subordination_witness,
                      theoretical_bounds)
from .verifier import (A4CaseAnalysis, BoundReport, SearchConfig, a4_case_bound,
                       a4_global_bound, case_one_cap, case_threshold, gap_certificate,
                       h_function, h_vertex, reports_to_csv, reports_to_json, scan_lambda,
                       sharpness_claimed, verify_gap_inequality)

__version__ = "0.1.0"
