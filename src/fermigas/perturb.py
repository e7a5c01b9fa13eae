"""Linear response of the zero-temperature cloud to a small trap change.

A perturbation dV(s)/E_F (spherically symmetric in the effective radius,
held on a dense grid over [0, 1] with linear interpolation) shifts the
Fermi energy so that particle number is conserved:

    dE_F/E_F = int_0^1 dV(s) s^2 sqrt(1-s^2) ds / int_0^1 s^2 sqrt(1-s^2) ds

(the local Fermi wavenumber weights the average) and changes the scaled
density inside the cloud by

    dn * R_F^3/(N lambda) = (12/pi^2) sqrt(1-s^2) (dE_F - dV(s))/E_F,

zero outside.  The local-wavenumber shift itself diverges at the cloud
edge but only the finite dn is exposed.  An interaction of strength u_int
(dimensionless, U*N*lambda/(E_F*R_F^3)) is treated as the one-shot
perturbation dV = u_int * zero_t_density(s), with no self-consistency loop.

The integral runs over 8 Gauss-Legendre nodes per grid panel in
theta = arcsin(s), where the sqrt(1-s^2) weight becomes the smooth cos^2
factor, so each panel integrates the piecewise-linear field to machine
precision, and dE_F is one 2048-term math.fsum over the grid weights of
_weights.  The work runs on lists of floats
(field_values, table_values, response), which the command line calls
directly; the ndarray API wraps them, and only it imports numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from operator import mul

from .curves import linspace
from .errors import DomainError, check_real
from .record import Record

GRID_SIZE = 2048
GRID_POINTS = linspace(0.0, 1.0, GRID_SIZE)  # the grid as floats; GRID is the array
SMALLNESS_GUARD = 0.1

_WEIGHT_NORM = math.pi / 16.0  # int_0^1 s^2 sqrt(1-s^2) ds
_DN_SCALE = [(12.0 / math.pi ** 2) * math.sqrt(1.0 - s * s) for s in GRID_POINTS]

# (node, weight) of the 8-point Gauss-Legendre rule on [-1, 1], the doubles
# of numpy.polynomial.legendre.leggauss(8)
_GAUSS_LEGENDRE = (
    (-0.9602898564975362, 0.10122853629037706),
    (-0.7966664774136267, 0.22238103445337443),
    (-0.525532409916329, 0.3137066458778869),
    (-0.18343464249564978, 0.36268378337836166),
    (0.18343464249564978, 0.36268378337836166),
    (0.525532409916329, 0.3137066458778869),
    (0.7966664774136267, 0.22238103445337443),
    (0.9602898564975362, 0.10122853629037706),
)


def _interp(x: float, xp, fp) -> float:
    """np.interp(x, xp, fp) for one float x, in its arithmetic: fp at a node
    or beyond the ends, else slope * (x - xp[j]) + fp[j] on the panel of x."""
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


@cache
def _weights() -> list:
    """The integral's weight on each grid value, built once per process: every node's
    weight split between the two grid values that _interp (np.interp's blend) takes at
    the node, so the 2047 x 8 node weights collapse into one per grid value.  Every node
    lies at least 4e-4 of its panel's width inside the panel, far beyond
    rounding, so it blends that panel's two values."""
    weights = [0.0] * GRID_SIZE
    theta = [math.asin(s) for s in GRID_POINTS]
    sin, cos = math.sin, math.cos
    for i in range(GRID_SIZE - 1):
        lo, s_lo = theta[i], GRID_POINTS[i]
        half = 0.5 * (theta[i + 1] - lo)
        width = GRID_POINTS[i + 1] - s_lo
        left = right = 0.0
        for x, w in _GAUSS_LEGENDRE:
            node = lo + half * (x + 1.0)
            s = sin(node)
            sc = s * cos(node)
            node_weight = half * w * (sc * sc)
            frac = (s - s_lo) / width
            left += node_weight * (1.0 - frac)
            right += node_weight * frac
        weights[i] += left
        weights[i + 1] += right
    return weights


def field_values(values: list) -> list:
    """The list of a field's GRID_SIZE floats, checked finite and within the guard."""
    if not all(map(math.isfinite, values)):
        raise DomainError("field values must be finite on [0, 1]")
    peak = max(max(values), -min(values))
    if peak > SMALLNESS_GUARD + 1e-12:
        raise DomainError(
            f"perturbation too large: max |dV|/E_F = {peak:.4g} exceeds "
            f"the smallness guard {SMALLNESS_GUARD}")
    return values


def table_values(s_points, v_points) -> list:
    """A (s, dV/E_F) table of finite numbers covering [0, 1], interpolated
    onto the grid."""
    if len(s_points) != len(v_points) or len(s_points) < 2:
        raise DomainError("field table needs matching 1-d s and value columns")
    for column, points in (("s", s_points), ("dV/E_F", v_points)):
        for row, x in enumerate(points, start=1):
            if not math.isfinite(x):
                raise DomainError(
                    f"field table {column} must be finite, got {x!r} in row {row}")
    if any(b <= a for a, b in zip(s_points, s_points[1:])):
        raise DomainError("field table abscissa must be strictly increasing")
    if s_points[0] > 1e-9 or s_points[-1] < 1.0 - 1e-9:
        raise DomainError(f"field table covers [{s_points[0]:g}, {s_points[-1]:g}] "
                          "but must cover [0, 1]")
    return [_interp(s, s_points, v_points) for s in GRID_POINTS]


def _shift(values) -> float:
    return math.fsum(map(mul, _weights(), values)) / _WEIGHT_NORM


def response(values) -> tuple:
    """(dE_F/E_F, [dn at each grid point]) for the field values on the grid."""
    de = _shift(values)
    return de, [c * (de - v) for c, v in zip(_DN_SCALE, values)]


@cache
def _grid():
    import numpy as np

    grid = np.array(GRID_POINTS)
    grid.flags.writeable = False  # shared by every caller
    return grid


def __getattr__(name):
    # GRID, the grid as an array, is built on first use (PEP 562)
    if name == "GRID":
        return _grid()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PerturbationField(Record, hidden=("values",)):
    """dV(s)/E_F sampled on the uniform grid over [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        v = np.array(self.values, dtype=float)  # a copy the caller cannot write to
        if v.shape != (GRID_SIZE,):
            raise DomainError(f"field must have {GRID_SIZE} grid values, "
                              f"got shape {v.shape}")
        field_values(v.tolist())
        v.flags.writeable = False  # checked once: finite and within the guard
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn):
        return cls([fn(s) for s in GRID_POINTS])

    @classmethod
    def from_table(cls, s_points, v_points):
        import numpy as np

        s = np.asarray(s_points, dtype=float)
        v = np.asarray(v_points, dtype=float)
        if s.ndim != 1 or v.ndim != 1:
            raise DomainError("field table needs matching 1-d s and value columns")
        return cls(table_values(s.tolist(), v.tolist()))

    def interp(self, s):
        import numpy as np

        return np.interp(s, _grid(), self.values)


class ResponseResult(Record, hidden=("s_grid", "delta_n")):
    """Fermi-energy shift and the particle-conserving density change."""

    delta_e_fermi: float
    s_grid: np.ndarray
    delta_n: np.ndarray


def fermi_energy_shift(fld: PerturbationField) -> float:
    """Particle-conserving dE_F/E_F for the given perturbation."""
    return _shift(fld.values.tolist())


def _response_result(values: list) -> ResponseResult:
    import numpy as np

    de, dn = response(values)
    return ResponseResult(delta_e_fermi=de, s_grid=_grid().copy(), delta_n=np.array(dn))


def density_response(fld: PerturbationField) -> ResponseResult:
    return _response_result(fld.values.tolist())


@cache
def _zero_t_density() -> list:
    """n0(s) at each grid point, tabulated once per process."""
    from .profiles import zero_t_density  # the perturb command needs no FD kernel

    return [zero_t_density(s) for s in GRID_POINTS]


def mean_field_correction(u_int: float) -> ResponseResult:
    """One-shot response to the interaction field dV = u_int * n0(s)."""
    u_int = check_real("u_int", u_int)
    n0 = _zero_t_density()
    peak = abs(u_int) * n0[0]  # the grid starts at s = 0
    if peak > SMALLNESS_GUARD + 1e-12:
        raise DomainError(
            f"interaction strength too large: |u_int|*n0(0) = {peak:.4g} "
            f"exceeds the smallness guard {SMALLNESS_GUARD}")
    # n0 falls from s = 0, so every |u_int * n0(s)| is within the guard
    return _response_result([u_int * n for n in n0])
