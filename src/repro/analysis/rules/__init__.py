"""Rule modules; importing this package registers every rule.

The registry's ``_load`` imports this module, and each rule module
registers its rules via the :func:`repro.analysis.registry.register`
decorator at import time.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for side effect)
    deadlock,
    determinism,
    locks,
    metrics,
    protocol,
    resources,
    robustness,
    units,
    wire,
)
