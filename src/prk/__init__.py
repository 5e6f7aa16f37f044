"""Partitioned / multirate Runge-Kutta time stepping for conservation laws.

The package provides:

* exact-rational partitioned Runge-Kutta tableaus and property checks,
* cell-based and flux-based decompositions of semi-discrete right-hand
  sides (including a shock-tracking dynamic partition),
* WENO5 / upwind spatial discretizations in 1D and 2D,
* the explicit partitioned time stepper and a high-accuracy reference
  integrator,
* linear error analysis: amplification operator, local-error coefficient
  matrices, the order-reduction matrix W and stability checks,
* an experiment harness that reproduces the convergence tables and
  figure data as CSV files.

Names are imported from their modules, whose ``__all__`` lists the API;
the package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
