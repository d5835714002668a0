"""Cholesky factor and solve for the small SPD systems of the flows.

The operators and multiplier Gram systems are at most a few dozen rows, so
the cost of a solve is call overhead, not arithmetic.  The factor is kept as
the inverse of the lower Cholesky factor L, which turns every later solve
into two matrix products:  A^{-1} b = L^{-T} (L^{-1} b).
"""

from __future__ import annotations

import numpy as np


def cho_factor(a):
    """Inverse lower Cholesky factor of a symmetric positive definite matrix.

    Raises ``np.linalg.LinAlgError`` when ``a`` is not positive definite.
    Like LAPACK's factorization, it does not screen NaN entries, which pass
    through into the factor.
    """
    return np.linalg.inv(np.linalg.cholesky(a))


def cho_solve(linv, b):
    """Solve A x = b given ``linv = cho_factor(A)``; ``b`` is 1-D, 2-D or a stack of 2-D."""
    return linv.T @ (linv @ b)
