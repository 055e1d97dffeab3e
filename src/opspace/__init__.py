"""Concrete operator spaces and executable metric characterizations.

The package represents finite-dimensional subspaces of complex matrix spaces
with their inherited matrix norms and turns metric characterizations of
unitaries, coisometries/isometries, operator systems, positive elements,
adjoints and multiplication-closed subspaces into decision procedures that
return certified witnesses or bounded-budget "no violation found" reports.

Import the modules by name (``from opspace import criteria, spaces``); the
package itself holds only ``__version__``, so loading a space imports
``spaces``, ``matcore`` and ``errors`` alone.
"""

__version__ = "0.1.0"
