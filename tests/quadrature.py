"""Adaptive Gauss-Legendre quadrature for smooth real integrands.

Panels are bisected until the GL estimate is stable against refinement.
The integrand must accept a numpy array of nodes and return an array.
"""

import numpy as np

from fermigas.errors import NumericsError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

_MAX_DEPTH = 48


def _panel(f, a, b):
    half = 0.5 * (b - a)
    x = a + half * (_GL_NODES + 1.0)
    return half * float(np.dot(_GL_WEIGHTS, f(x)))


def adaptive_gl(f, a, b, abs_tol=1e-12):
    """Integrate f over [a, b] to the requested absolute tolerance."""
    if not b > a:
        return 0.0
    total = 0.0
    stack = [(a, b, _panel(f, a, b), abs_tol, 0)]
    while stack:
        lo, hi, whole, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = abs(left + right - whole)
        if err <= tol or depth >= _MAX_DEPTH:
            if depth >= _MAX_DEPTH and err > tol:
                raise NumericsError(
                    f"quadrature failed to converge on [{lo}, {hi}] (err={err:.3e})"
                )
            total += left + right
        else:
            stack.append((lo, mid, left, 0.5 * tol, depth + 1))
            stack.append((mid, hi, right, 0.5 * tol, depth + 1))
    return total


def adaptive_gl_split(f, edges, abs_tol=1e-12):
    """Integrate f over consecutive [edges[i], edges[i+1]] panels and sum."""
    edges = [float(e) for e in edges]
    n = len(edges) - 1
    return sum(
        adaptive_gl(f, edges[i], edges[i + 1], abs_tol / max(n, 1))
        for i in range(n)
    )
