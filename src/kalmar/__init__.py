"""Exact and asymptotic workbench for the Kalmar ordered-factorization
function K(n): three independent exact methods, the analytic constants and
the Evans-style estimate, the closed-form budget optimization with its
witness construction, and K-champion enumeration.

The package itself defines only __version__.  Import each name from its
module (from kalmar.champions import census, or from kalmar import exact as
ex); importing one module loads only the modules it uses."""

__version__ = "0.1.0"
