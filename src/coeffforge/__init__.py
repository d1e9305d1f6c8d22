"""Coefficient machinery for a one-parameter class of normalized analytic
functions on the unit disk: truncated series algebra with reversion,
Schwarz-jet parameterization, closed-form inverse coefficients, and
independent verification of the sharp bounds on the first inverse
coefficients and the Fekete-Szego functional. A public name is imported
from its module on first access, so the CLI loads only what it uses."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": "EXACT FLOAT QComplex class_parameter",
    "series": "TruncatedSeries inverse_from_zf require_normalized revert zf_jet",
    "schwarz": "SchwarzJet SearchConfig c2_disks c3_disk is_admissible",
    "ulambda": "FUNCTIONALS MembershipVerdict corner_jet direct_coeffs extremal_function "
               "extremal_inverse functional_bound inverse_coeffs inverse_coeffs_by_reversion "
               "inverse_from_jet inverse_weights membership_profile membership_scan "
               "zf_from_schwarz",
    "verifier": "BoundReport exact_proofs reports_to_csv reports_to_json scan_lambda",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
