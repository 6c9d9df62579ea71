"""Universal source compression with quantum side information, and the
finite-size security analysis of the two-state (B92) QKD protocol built on
top of it.

Layered structure:

- ``fields`` / ``hashing``: GF(p^r) arithmetic, generalized Weyl operators,
  2-universal linear hash families, and the coherent hashing unitary.
- ``schur_weyl``: isotypic projectors and the universal symmetric state that
  polynomially dominates every i.i.d. state.
- ``matfun`` / ``entropies``: Hermitian matrix calculus, conditional Rényi
  entropies (the Sibson closed form, and a certified bracket on the same
  maximum from the shared maximizer of ``optimize``), and the scalar
  confidence-bound solvers.
- ``compression``: universal decoders via operator division and the
  error-exponent bound, with exact desk-scale simulation.
- ``optimize``: certified log-barrier SDP, facial reduction, the exact
  tilted projection onto a halfspace, and one concave maximizer,
  sequential linearization with a fully-corrective Frank-Wolfe weight step;
  ``b92`` hands it the Sanov divergence minimum as -min_p D(p||q(rho)).
  Phase one and the SDP solve share one barrier-Newton core, and phase one
  and facial reduction run once per feasible set.
- ``b92``: protocol POVMs, acceptance sets, finite-size key lengths for the
  universal and phase-error-pattern analyses, and asymptotic rates with the
  Devetak-Winter cross-check.
- ``cli``: batch entry point (``ucqkd`` command).
"""

from .errors import (
    CapacityError,
    DomainError,
    InfeasibleError,
    InvariantError,
    UcqkdError,
    UsageError,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "InfeasibleError",
    "InvariantError",
    "UcqkdError",
    "UsageError",
    "__version__",
]
