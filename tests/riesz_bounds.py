"""The accuracy contract of `Operators.riesz_norm` on linked levels.

PCG from zero is a Galerkin projection, so its norm can only be low: by
the square of the solve's truncation, at most 1e-8 relative, one part in
five of the CSV's last printed `resi` digit. It is high only by the
float32 V-cycle's round-off, at most 1e-12 relative.
"""

import numpy as np

RIESZ_LOW = 1e-8
RIESZ_HIGH = 1e-12


def assert_riesz_norm_close(got, want):
    """want (1 - RIESZ_LOW) <= got <= want (1 + RIESZ_HIGH), entrywise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    rel = (got - want) / want
    bad = (got < want * (1.0 - RIESZ_LOW)) | (got > want * (1.0 + RIESZ_HIGH))
    assert not np.any(bad), (
        f"relative errors {rel[bad]} outside "
        f"[-{RIESZ_LOW:g}, +{RIESZ_HIGH:g}]")
