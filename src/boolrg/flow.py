"""Density flows under repeated decimation and classification into phases.

For a table whose outputs are iid Bernoulli(p), one decimation leaves iid
outputs with parameter 2p(1-p); iterating gives the closed form
p_ell = (1 - (1-2*p0)**(2**ell)) / 2, which pulls every 0 < p0 < 1 to the
fixed point 1/2.  Everything that is NOT pulled there cleanly (polynomials
that die, sum-dependent functions that stall away from 1/2, sparse-noise
near-polynomials) is what the classifier looks for.
"""

from __future__ import annotations

import enum
import io
import csv as _csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import rg
from .truth_table import TruthTable

Density = Fraction | float


def analytic_density(p0: float, ell: int) -> float:
    """Closed form of the iid-coefficient density after ``ell`` decimations."""
    if not 0 <= p0 <= 1:
        raise ValueError(f"probability {p0} outside [0, 1]")
    if ell < 0:
        raise ValueError("step count must be nonnegative")
    if ell == 0:
        return float(p0)
    if p0 == 0.5:
        return 0.5
    # |1 - 2p|**(2**ell) through expm1/log1p; the exponent is even, and the
    # log1p form keeps tiny p0 exact where 1 - 2p0 would round to 1
    log_u = math.log1p(-2.0 * p0) if p0 < 0.5 else math.log(2.0 * p0 - 1.0)
    if ell > 1023:  # 2.0**ell would overflow; the flow is already pinned
        return 0.0 if log_u == 0.0 else 0.5
    return -0.5 * math.expm1((2.0 ** ell) * log_u)


def density_recursion_step(p: float) -> float:
    """One application of p -> 2p(1-p)."""
    return 2.0 * p * (1.0 - p)


def small_p_prediction(p0: float, ell: int) -> float:
    """Linearized growth 2**ell * p0, clamped to 1; valid only while << 1."""
    if p0 < 0:
        raise ValueError("probability must be nonnegative")
    if ell < 0:
        raise ValueError("step count must be nonnegative")
    if p0 > 0 and ell >= -math.log2(p0):
        return 1.0
    return min(math.ldexp(p0, ell), 1.0)


@dataclass(frozen=True)
class FlowStep:
    """One decimation: the original label removed (None for a symmetric
    engine step), the arity left, and the exact density after the step."""

    var: int | None
    remaining_arity: int
    density: Density


@dataclass(frozen=True)
class FlowTrace:
    start_arity: int
    start_density: Density
    steps: tuple[FlowStep, ...]

    def __post_init__(self) -> None:
        arity = self.start_arity
        for step in self.steps:
            if step.remaining_arity != arity - 1:
                raise ValueError("remaining arity must drop by 1 per step")
            if not 0 <= step.density <= 1:
                raise ValueError("densities must lie in [0, 1]")
            arity = step.remaining_arity

    def densities(self) -> list[Density]:
        """Densities indexed by step count, starting at step 0."""
        return [self.start_density] + [step.density for step in self.steps]

    def density_at(self, ell: int) -> Density:
        return self.start_density if ell == 0 else self.steps[ell - 1].density


def empirical_flow(t: TruthTable, order: Iterable[int]) -> FlowTrace:
    """Exact densities of successive decimations along ``order``."""
    steps = tuple(
        FlowStep(v, m, Fraction(rg.popcount(buf), 1 << m))
        for v, m, buf in rg.walk(t, order)
    )
    return FlowTrace(t.n, t.density(), steps)


_CSV_EXACT = "step,remaining_arity,decimated_var,density_num,density_den"
_CSV_REAL = "step,remaining_arity,decimated_var,density_real"


def _var_cell(var: int | None) -> str:
    return "SYMMETRIC" if var is None else str(var)


def flow_trace_to_csv(trace: FlowTrace, analytic_p0: float | None = None) -> str:
    """Render a trace as CSV; symmetric/real traces use a density_real column.

    With ``analytic_p0`` an extra ``analytic_density`` column carries the
    closed-form prediction for side-by-side comparison.
    """
    real = any(step.var is None for step in trace.steps) or not all(
        isinstance(d, Fraction) for d in trace.densities()
    )
    header = _CSV_REAL if real else _CSV_EXACT
    if analytic_p0 is not None:
        header += ",analytic_density"
    lines = [header]
    for ell, density in enumerate(trace.densities()):
        var = "" if ell == 0 else _var_cell(trace.steps[ell - 1].var)
        arity = trace.start_arity - ell
        if real:
            row = f"{ell},{arity},{var},{float(density)!r}"
        else:
            row = f"{ell},{arity},{var},{density.numerator},{density.denominator}"
        if analytic_p0 is not None:
            row += f",{analytic_density(analytic_p0, ell)!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def flow_trace_from_csv(text: str) -> FlowTrace:
    """Parse a trace written by :func:`flow_trace_to_csv` (analytic column
    is derived data and is dropped)."""
    rows = list(_csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    header = rows[0]
    if header[:4] == _CSV_EXACT.split(",")[:4] and "density_num" in header:
        exact = True
    elif header[:4] == _CSV_REAL.split(","):
        exact = False
    else:
        raise ValueError(f"unrecognized flow CSV header {header}")
    start_arity = None
    start_density: Density | None = None
    steps = []
    for row in rows[1:]:
        if not row:
            continue
        ell, arity, var = int(row[0]), int(row[1]), row[2]
        density: Density = (
            Fraction(int(row[3]), int(row[4])) if exact else float(row[3])
        )
        if ell == 0:
            start_arity, start_density = arity, density
            continue
        steps.append(
            FlowStep(None if var == "SYMMETRIC" else int(var), arity, density)
        )
    if start_arity is None or start_density is None:
        raise ValueError("flow CSV has no step-0 row")
    return FlowTrace(start_arity, start_density, tuple(steps))


class Phase(enum.Enum):
    GENERIC = "GENERIC"
    ANNIHILATED = "ANNIHILATED"
    COMPOSITE_SUSPECT = "COMPOSITE_SUSPECT"
    NEAR_POLYNOMIAL = "NEAR_POLYNOMIAL"
    UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class ClassifyConfig:
    """Thresholds for :func:`classify`; defaults are calibrated on the
    bundled families and echoed into every report."""

    burn_in: int = 2
    generic_band: float = 4.0
    tau_min: float = 0.02
    composite_coeff: float = 1.0
    min_cells: int = 64
    steps: int | None = None  # default min(arity - 1, 12)
    annihilation_cap: int | None = None  # default = steps
    n_orders: int = 64
    xi_max: int = 4
    bound_c: float = 1.0
    bound_alpha: float = 1.0
    exhaustive_k_cap: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.n_orders < 1 or self.min_cells < 1:
            raise ValueError("invalid classifier config")
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if (
            self.annihilation_cap is not None
            and self.steps is not None
            and self.annihilation_cap > self.steps
        ):
            raise ValueError("annihilation cap cannot exceed traced steps")


@dataclass(frozen=True)
class ClassificationReport:
    label: Phase
    xi: int | None
    remainder_density: Density | None
    thresholds: dict
    traces: tuple[FlowTrace, ...]
    detector: "object | None"  # DecompositionReport when the detector ran


def _density_obj(d: Density):
    return [d.numerator, d.denominator] if isinstance(d, Fraction) else float(d)


def _density_from_obj(obj) -> Density:
    return Fraction(obj[0], obj[1]) if isinstance(obj, list) else float(obj)


def trace_to_obj(trace: FlowTrace) -> dict:
    return {
        "start_arity": trace.start_arity,
        "start_density": _density_obj(trace.start_density),
        "steps": [
            {
                "var": _var_cell(step.var),
                "remaining_arity": step.remaining_arity,
                "density": _density_obj(step.density),
            }
            for step in trace.steps
        ],
    }


def trace_from_obj(obj: dict) -> FlowTrace:
    steps = tuple(
        FlowStep(
            None if s["var"] == "SYMMETRIC" else int(s["var"]),
            s["remaining_arity"],
            _density_from_obj(s["density"]),
        )
        for s in obj["steps"]
    )
    return FlowTrace(obj["start_arity"], _density_from_obj(obj["start_density"]), steps)


def classification_to_json(report: ClassificationReport) -> str:
    from .detector import decomposition_to_obj

    obj = {
        "label": report.label.value,
        "xi": report.xi,
        "thresholds": report.thresholds,
        "traces": [trace_to_obj(t) for t in report.traces],
        "detector": (
            decomposition_to_obj(report.detector) if report.detector else None
        ),
    }
    return json.dumps(obj, indent=2)


def classification_from_json(text: str) -> ClassificationReport:
    from .detector import decomposition_from_obj

    obj = json.loads(text)
    detector = decomposition_from_obj(obj["detector"]) if obj["detector"] else None
    remainder = detector.remainder_density if detector else None
    return ClassificationReport(
        Phase(obj["label"]),
        obj["xi"],
        remainder,
        obj["thresholds"],
        tuple(trace_from_obj(t) for t in obj["traces"]),
        detector,
    )


def _first_zero(trace: FlowTrace) -> int | None:
    return next((ell for ell, d in enumerate(trace.densities()) if d == 0), None)


def classify(f, config: ClassifyConfig | None = None) -> ClassificationReport:
    """Assign a phase label from the behavior under repeated decimation.

    Decision list: (1) annihilated if every sampled decimation order hits
    the zero function within the cap; (2) composite-variable suspect if some
    trace stays further than max(tau_min, c/sqrt(arity)) from 1/2 at every
    usable step; (3) near-polynomial if the surviving density after xi+1
    steps is small enough to be explained by a sparse remainder within the
    configured bound; (4) generic if every usable density sits inside the
    band 4 * 2**(-(remaining arity)/2) around 1/2; otherwise unclassified.
    Steps with fewer than ``min_cells`` configurations are never used.
    """
    from .detector import (
        DecompositionReport,
        detection_bound,
        exhaustive_nearest_polynomial,
    )
    from .symmetric import SymmetricFunction, sym_flow

    cfg = config or ClassifyConfig()
    symmetric_input = isinstance(f, SymmetricFunction)
    n = f.n
    steps = cfg.steps if cfg.steps is not None else max(min(n - 1, 12), 0)
    steps = min(steps, n)
    cap = steps if cfg.annihilation_cap is None else min(cfg.annihilation_cap, steps)

    if symmetric_input:
        traces: list[FlowTrace] = [sym_flow(f, steps).trace]
        engine = "symmetric"
        n_orders = 1
    else:
        orders = rg.sample_orders(n, cfg.n_orders, steps, cfg.seed)
        traces = [empirical_flow(f, order) for order in orders]
        engine = "table"
        n_orders = len(orders)

    thresholds = {
        "engine": engine,
        "steps": steps,
        "annihilation_cap": cap,
        "orders_sampled": n_orders,
        "burn_in": cfg.burn_in,
        "generic_band": cfg.generic_band,
        "tau_min": cfg.tau_min,
        "composite_coeff": cfg.composite_coeff,
        "min_cells": cfg.min_cells,
        "xi_max": cfg.xi_max,
        "bound_c": cfg.bound_c,
        "bound_alpha": cfg.bound_alpha,
        "seed": cfg.seed,
    }

    def report(label, xi=None, remainder=None, detector=None):
        return ClassificationReport(
            label, xi, remainder, thresholds, tuple(traces), detector
        )

    # 1: annihilation within the cap, over every sampled order
    first_zeros = [_first_zero(trace) for trace in traces]
    if all(fz is not None and fz <= cap for fz in first_zeros):
        depth = max(first_zeros)
        return report(Phase.ANNIHILATED, xi=max(depth - 1, 0))

    window = [
        ell
        for ell in range(cfg.burn_in + 1, steps + 1)
        if (1 << (n - ell)) >= cfg.min_cells
    ]

    if window:
        # 2: densities pinned away from 1/2 at every usable step
        def deviation(trace, ell):
            return abs(float(trace.density_at(ell)) - 0.5)

        def tau(ell):
            return max(cfg.tau_min, cfg.composite_coeff / math.sqrt(n - ell))

        for trace in traces:
            if all(deviation(trace, ell) > tau(ell) for ell in window):
                return report(Phase.COMPOSITE_SUSPECT)

        # 3: sparse remainder screening from the recorded flows
        if n >= 2:
            for xi in range(1, min(cfg.xi_max, steps - 1) + 1):
                survived = max(
                    (t.density_at(xi + 1) for t in traces), key=float
                )
                rho = survived / (1 << (xi + 1))
                bound = detection_bound(n, xi, cfg.bound_c, cfg.bound_alpha)
                if float(rho) > bound:
                    continue
                k = sum(math.comb(n, j) for j in range(xi + 1))
                if not symmetric_input and k <= cfg.exhaustive_k_cap:
                    rep = exhaustive_nearest_polynomial(
                        f, xi, cfg.bound_c, cfg.bound_alpha
                    )
                    if rep.meets_bound:
                        return report(
                            Phase.NEAR_POLYNOMIAL,
                            xi=xi,
                            remainder=rep.remainder_density,
                            detector=rep,
                        )
                    continue  # exact search refutes the screen at this degree
                rep = DecompositionReport(
                    xi=xi,
                    method="DERIVATIVE_SIEVE",
                    witness=None,
                    remainder_density=Fraction(rho),
                    bound_c=cfg.bound_c,
                    bound_alpha=cfg.bound_alpha,
                    meets_bound=True,
                )
                return report(
                    Phase.NEAR_POLYNOMIAL,
                    xi=xi,
                    remainder=rep.remainder_density,
                    detector=rep,
                )

        # 4: inside the generic band everywhere
        def band(ell):
            return cfg.generic_band * 2.0 ** (-(n - ell) / 2.0)

        if all(
            deviation(trace, ell) <= band(ell) for trace in traces for ell in window
        ):
            return report(Phase.GENERIC)

    return report(Phase.UNCLASSIFIED)
