"""Numerical laboratory for a scaled compressible magneto-fluid and its
Oberbeck-Boussinesq-type limit with a non-local mean-temperature term.

Subpackages:

* :mod:`obmlab.thermo`  -- equation of state, entropy, transport laws.
* :mod:`obmlab.fields`  -- grids, mixed spectral/finite difference
  operators on plain arrays, snapshot I/O.
* :mod:`obmlab.obm`     -- solver for the limit system (incompressible
  velocity, scalar magnetic deviation, heat equation with non-local term).
* :mod:`obmlab.mhd`     -- explicit solver for the scaled primitive system.
* :mod:`obmlab.relent`  -- relative energy functional, coercivity constants,
  well-prepared data, convergence studies.
* :mod:`obmlab.mms`     -- manufactured forced solutions and refinement
  sweeps for order verification of both solvers.
* :mod:`obmlab.cli`     -- command line front end.
"""

__version__ = "0.1.0"
