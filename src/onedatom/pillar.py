"""Micropillar design: quality factor vs diameter, Purcell factor, figures
of merit, and single-variable diameter optimization.

Lengths are in micrometers.  The sidewall-field model that feeds the
etching-loss formula 1/Q_leak = 2 |E(d)|^2 eps / d is pluggable: the default
is a power law |E(d)|^2 = (c_E/d)^2 calibrated so that a Q0 = 1000 pillar
with eps = 0.007 and d = 2.4 um has Q = 960; tabulated profiles can be
supplied instead.

Every figure of merit comes from one array evaluation over a set of
diameters, in blocks of `csvio.BLOCK_ROWS`: a diameter scan is one call,
each refinement scan of the optimizer is one call, and a single design
(:func:`figures_of_merit`) is the same call on a scalar diameter, a
one-element block, so all give the same bits.  The resonant T_min and
T_max are the steady-state kernel's transmission at zero drive and its
empty-cavity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NonFiniteInput, NonPositiveRate, UnsupportedRegime
from .linear import _fixed_point, t0_prime
from .model import ColumnRecord, SystemParams, _blockwise

DEFAULT_EPSILON = 0.007        # etching-quality parameter, um
DEFAULT_WAVELENGTH = 1.0       # vacuum wavelength, um
DEFAULT_N_INDEX = 3.5          # semiconductor refractive index

# Power-law coefficient solved from the calibration point
# (Q0=1000, d=2.4 um, eps=0.007) -> Q=960, i.e. 2 c^2 eps / d^3 = 1/960 - 1/1000.
_CAL_Q0, _CAL_Q, _CAL_D = 1000.0, 960.0, 2.4
DEFAULT_C_E = math.sqrt(
    (1.0 / _CAL_Q - 1.0 / _CAL_Q0) * _CAL_D ** 3 / (2.0 * DEFAULT_EPSILON))


@dataclass(frozen=True)
class FieldProfileModel:
    """Normalized sidewall field intensity |E(d)|^2 of the fundamental mode.

    ``power_law`` uses |E(d)|^2 = min(1, (c_e/d)^p_exp); ``tabulated``
    interpolates linearly between (d, |E(d)|^2) samples (clamped at the
    table ends).
    """

    kind: str = "power_law"
    c_e: float = DEFAULT_C_E
    p_exp: float = 2.0
    table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "power_law":
            if self.c_e <= 0.0 or self.p_exp <= 0.0:
                raise NonPositiveRate("power-law c_e and p_exp must be > 0")
        elif self.kind == "tabulated":
            pts = tuple((float(d), float(e2)) for d, e2 in self.table)
            ds = [d for d, _ in pts]
            if len(pts) < 2 or any(b <= a for a, b in zip(ds, ds[1:])):
                raise NonPositiveRate(
                    "tabulated profile needs >= 2 strictly increasing diameters")
            if any(not 0.0 <= e2 <= 1.0 for _, e2 in pts):
                raise NonPositiveRate("tabulated |E(d)|^2 must lie in [0, 1]")
            object.__setattr__(self, "table", pts)
        else:
            raise NonPositiveRate(f"unknown field model kind {self.kind!r}")

    def field_sq(self, d):
        """|E(d)|^2 at a diameter, or elementwise over an array of them."""
        if self.kind == "power_law":
            # float_power is the C library pow, as Python's float ** is;
            # numpy's ** (a square for p = 2, a vector pow otherwise) can
            # round the last bit differently.
            return np.minimum(1.0, np.float_power(self.c_e / d, self.p_exp))
        ds, es = zip(*self.table)
        return np.interp(d, ds, es)


def default_field_model() -> FieldProfileModel:
    return FieldProfileModel()


@dataclass(frozen=True)
class PillarDesign:
    """Geometric and material parameters of one micropillar design.

    ``loss_ratio`` is gamma_at/gamma_free (1 for a bare pillar, about 0.1
    after sidewall metallization); ``gamma_star_ratio`` is
    gamma_star/gamma_free (0 under resonant excitation at low temperature).
    """

    q0: float
    d: float
    epsilon: float = DEFAULT_EPSILON
    lambda_0: float = DEFAULT_WAVELENGTH
    n_index: float = DEFAULT_N_INDEX
    loss_ratio: float = 1.0
    gamma_star_ratio: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise NonFiniteInput(f"{f.name} must be finite, got {value!r}")
        if self.q0 <= 0.0 or self.d <= 0.0 or self.lambda_0 <= 0.0:
            raise NonPositiveRate("q0, d and lambda_0 must be > 0")
        if self.epsilon < 0.0 or self.gamma_star_ratio < 0.0:
            raise NonPositiveRate("epsilon and gamma_star_ratio must be >= 0")
        if self.n_index <= 1.0:
            raise NonPositiveRate("n_index must be > 1")
        if self.loss_ratio <= 0.0:
            raise NonPositiveRate("loss_ratio must be > 0")


@dataclass(frozen=True)
class FiguresOfMerit(ColumnRecord):
    """Derived quantities of one design point, or of a diameter scan as
    columns, one array per field.

    Indexing and iteration give a scan's rows as this class of Python
    floats (`model.ColumnRecord`); `DiameterSweep` names it too.
    """

    d: float
    q: float
    v: float
    fp: float
    f: float
    q_ratio: float
    t_max: float
    t_min: float
    contrast: float
    eta: float
    beta_sq: float


#: A diameter scan and its rows are one record.
DiameterSweep = FiguresOfMerit


def _sweep(design: PillarDesign, d,
           field_model: FieldProfileModel) -> FiguresOfMerit:
    """Figures of merit at the diameter ``d``, a float, or at each of the
    diameters of the 1-d array ``d`` (finite and > 0); ``design`` supplies
    every other parameter.  A float gives Python floats, an array columns
    filled a block of `csvio.BLOCK_ROWS` diameters at a time
    (`model._blockwise`).

    f follows from the Purcell factor through
    f = F_p / (loss_ratio + 2 gamma_star_ratio).  T_min is |t|^2 of the
    steady-state kernel at zero drive and T_max that of its empty-cavity
    limit -(Q/Q0) t0'(0), for the rates that params_from_ratios(1, 500,
    Q/Q0, f) gives: Q/Q0 and 1/f make its round trip through gamma_cav and
    gamma_at, and the resonant values depend on (Q/Q0, f) only.
    """
    lam_n = design.lambda_0 / design.n_index

    def block(_, d):
        # Overflow and 0/0 show up as a non-finite contrast or eta, checked
        # below.
        with np.errstate(all="ignore"):
            # 1/Q = 1/Q0 + 2 |E(d)|^2 eps / d
            q = 1.0 / (1.0 / design.q0 + 2.0 * field_model.field_sq(d)
                       * design.epsilon / d)
            # V = (lambda/n) pi d^2 / 8, F_p = (3 Q / (4 pi^2 V)) (lambda/n)^3
            v = lam_n * math.pi * np.float_power(d, 2) / 8.0
            fp = 3.0 * q * np.float_power(lam_n, 3) / (4.0 * math.pi ** 2 * v)
            f = fp / (design.loss_ratio + 2.0 * design.gamma_star_ratio)
            # Q <= Q0; the clip only removes the last-bit excess 1/(1/Q0)
            # can carry.
            q_ratio = np.minimum(q / design.q0, 1.0)
            params = SystemParams(1.0, 500.0, gamma_at=q_ratio / f,
                                  gamma_cav=1000.0 * (1.0 / q_ratio - 1.0))
            t_max = np.abs(params.q_ratio * t0_prime(0.0, params)) ** 2
            # T_min <= T_max; the clip only removes a last-bit excess.
            t_min = np.minimum(np.abs(_fixed_point(0.0, 0.0, params)[4]) ** 2,
                               t_max)
            beta = f / (1.0 + f)
            contrast = t_max - t_min
            eta = beta * q_ratio
        # Every other column is finite where these two are.
        finite = np.isfinite(contrast + eta)
        if not finite.all():
            raise UnsupportedRegime(
                "figures of merit leave the float range at "
                f"d={float(d[np.argmin(finite)])!r}")
        return (d, q, v, fp, f, q_ratio, t_max, t_min, contrast, eta,
                beta * beta)

    return FiguresOfMerit(*_blockwise((d,), (float,) * 11, block))


def figures_of_merit(design: PillarDesign,
                     field_model: FieldProfileModel = None) -> FiguresOfMerit:
    """Contrast, quantum efficiency, absorption probability of one design.

    The design is evaluated as a one-element diameter scan.
    """
    return _sweep(design, float(design.d), field_model or default_field_model())


def mode_volume(design: PillarDesign) -> float:
    """Effective mode volume V = (lambda/n) pi d^2 / 8, in um^3."""
    return figures_of_merit(design).v


def q_total(design: PillarDesign, field_model: FieldProfileModel = None) -> float:
    """Total quality factor 1/Q = 1/Q0 + 2 |E(d)|^2 eps / d."""
    return figures_of_merit(design, field_model).q


def purcell_factor(design: PillarDesign, field_model: FieldProfileModel = None) -> float:
    """Purcell factor F_p = (3 Q / (4 pi^2 V)) (lambda/n)^3."""
    return figures_of_merit(design, field_model).fp


def sweep_diameter(q0, d_grid, field_model=None, **design_kwargs) -> DiameterSweep:
    """Figures of merit for every diameter of ``d_grid``, in one array call."""
    d = np.asarray(d_grid, dtype=float).reshape(-1)
    if not np.all(np.isfinite(d)):
        raise NonFiniteInput("d_grid must be finite")
    if not np.all(d > 0.0):
        raise NonPositiveRate("d_grid must be > 0")
    # d=1.0 stands in for the grid, checked above: the constructor
    # validates every other parameter.
    design = PillarDesign(q0=q0, d=1.0, **design_kwargs)
    return _sweep(design, d, field_model or default_field_model())


#: Column of :class:`DiameterSweep` that each objective maximizes.
_OBJECTIVE_COLUMN = {"contrast": "contrast", "purcell": "fp",
                     "efficiency": "eta", "beta_sq": "beta_sq"}
OBJECTIVES = tuple(_OBJECTIVE_COLUMN)

#: Points of each refinement scan: a bracket of two steps shrinks by 32.
_REFINE_POINTS = 65
#: Largest coarse scan of optimize_diameter (50 mm of diameters at 0.05 um).
MAX_GRID_CELLS = 10 ** 6


@dataclass(frozen=True)
class OptimizeResult:
    d_opt: float
    value: float
    objective: str
    merit: FiguresOfMerit
    sweep: DiameterSweep
    at_boundary: bool
    #: Diameters of the coarse scan.
    grid_points: int
    #: Refinement scans around the best point of the coarse scan.
    refine_scans: int


def optimize_diameter(q0, objective="contrast", d_range=(0.5, 8.0),
                      field_model=None, grid_step=0.02, **design_kwargs) -> OptimizeResult:
    """Maximize one figure of merit over the pillar diameter.

    Coarse grid scan (step <= 0.05 um, at most MAX_GRID_CELLS steps, one
    array call), then refinement scans: each re-grids the bracket between
    the neighbours of the best point (clamped at the scan's ends) with
    _REFINE_POINTS points in one array call, until the bracket is at most
    1e-7 um wide.  ``merit`` is the best row of the last scan, unless the
    best row of the coarse scan is better (a feature narrower than a
    refinement step, which the refinement scans miss).  A maximum on
    the range boundary is reported through ``at_boundary`` (objective
    monotone over the range), not raised; so is a contrast no larger than
    4 eps max(T_max), the rounding of T_max - T_min, at the first point.
    """
    if objective not in _OBJECTIVE_COLUMN:
        raise NonPositiveRate(
            f"objective must be one of {OBJECTIVES}, got {objective!r}")
    key = _OBJECTIVE_COLUMN[objective]
    lo, hi = float(d_range[0]), float(d_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteInput(f"d_range must be finite, got {d_range!r}")
    if not 0.0 < lo < hi:
        raise NonPositiveRate(f"invalid d_range {d_range!r}")
    step = float(grid_step)
    if not math.isfinite(step):
        raise NonFiniteInput(f"grid_step must be finite, got {grid_step!r}")
    if not step > 0.0:
        raise NonPositiveRate(f"grid_step must be > 0, got {grid_step!r}")
    cells = (hi - lo) / min(step, 0.05)
    if not cells <= MAX_GRID_CELLS:
        raise UnsupportedRegime(
            f"d_range {d_range!r} needs more than {MAX_GRID_CELLS} grid steps")
    fm = field_model or default_field_model()
    n = max(2, int(math.ceil(cells)) + 1)
    grid = np.linspace(lo, hi, n)
    design = PillarDesign(q0=q0, d=lo, **design_kwargs)
    sweep = _sweep(design, grid, fm)
    values = getattr(sweep, key)
    i = int(np.argmax(values))
    # A contrast within rounding of T_max - T_min is flat: its maximum is
    # noise, so the first grid point is reported as a boundary optimum.
    if (key == "contrast"
            and values[i] <= 4.0 * np.finfo(float).eps * np.max(sweep.t_max)):
        i = 0
    at_boundary = i in (0, n - 1)
    coarse = i
    scan, scans = sweep, 0
    if not at_boundary:
        a, b = grid[i - 1], grid[i + 1]
        while b - a > 1e-7:
            scan = _sweep(design, np.linspace(a, b, _REFINE_POINTS), fm)
            i = int(np.argmax(getattr(scan, key)))
            a, b = scan.d[max(i - 1, 0)], scan.d[min(i + 1, _REFINE_POINTS - 1)]
            scans += 1
    merit = scan[i]
    if getattr(merit, key) < values[coarse]:
        merit = sweep[coarse]
    return OptimizeResult(d_opt=merit.d, value=getattr(merit, key),
                          objective=objective, merit=merit, sweep=sweep,
                          at_boundary=at_boundary, grid_points=n,
                          refine_scans=scans)
