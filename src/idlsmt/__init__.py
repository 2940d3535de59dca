"""SMT solving for quantifier-free integer difference logic.

The theory engine keeps an incrementally updated all-pairs shortest-path
closure over the asserted bounds and reports negative cycles as conflicts;
a CDCL core drives it lazily. The package speaks SMT-LIB v2 through
:mod:`idlsmt.cli` or programmatically through :class:`idlsmt.engine.Session`.
"""

from .engine import Response, Session, SessionConfig

__version__ = "0.1.0"

# the relax kernel (idlsmt.kernels) is numpy code
KERNEL_BACKEND = "numpy"

__all__ = ["Session", "SessionConfig", "Response", "KERNEL_BACKEND",
           "__version__"]
