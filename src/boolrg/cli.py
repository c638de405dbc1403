"""Command-line front end for reproducible decimation experiments.

Subcommands: flow, sym-flow, classify, detect, count, gen.  Every command
is deterministic under an explicit --seed; without one a fresh seed is
drawn and echoed to stderr so the run can be reproduced.  detect exits 0
when the probed function fits the near-polynomial bound, 3 when it does
not, and 4 when the exact search would exceed its candidate cap, so shell
pipelines can sieve corpora without parsing JSON.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import click

from . import counting, detector, families, flow, rg, symmetric
from .truth_table import (
    N_MAX,
    BfrgError,
    TruthTable,
    anf_to_table,
    read_table,
    write_table,
)

TABLE_FAMILIES = ("random", "parity", "majority", "mod_p", "poly", "planted")
SYM_FAMILIES = ("parity", "majority", "mod_p")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "little")
        click.echo(f"seed={seed}", err=True)
    return seed


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _build_table(family, n, p0, p, xi, term_density, noise, seed) -> TruthTable:
    if n is None:
        raise click.UsageError("--n is required for a generated family")
    if n > N_MAX:
        raise click.UsageError(
            f"arity {n} exceeds the exhaustive-table cap {N_MAX}; "
            "use sym-flow or classify --engine symmetric"
        )
    try:
        if family == "random":
            return families.random_table(n, p0, seed)
        if family == "parity":
            return families.parity(n)
        if family == "majority":
            return families.majority(n)
        if family == "mod_p":
            return families.mod_p(n, p)
        if family == "poly":
            return anf_to_table(families.random_polynomial(n, xi, term_density, seed))
        if family == "planted":
            return families.planted_near_polynomial(
                n, xi, noise, seed, term_density
            ).table
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    raise click.UsageError(f"unknown family {family!r}")


def _build_symmetric(family, n, p) -> symmetric.SymmetricFunction:
    if n is None:
        raise click.UsageError("--n is required")
    try:
        if family == "parity":
            return families.parity_sym(n)
        if family == "majority":
            return families.majority_sym(n)
        if family == "mod_p":
            return families.mod_p_sym(n, p)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    raise click.UsageError(f"unknown symmetric family {family!r}")


def _load_table(file, family, n, p0, p, xi, term_density, noise, seed) -> TruthTable:
    if file:
        try:
            return read_table(file)
        except BfrgError as exc:
            raise click.ClickException(f"bad table file {file}: {exc}") from exc
    if not family:
        raise click.UsageError("provide --family or --file")
    return _build_table(family, n, p0, p, xi, term_density, noise, seed)


def _family_options(fn):
    for option in reversed(
        [
            click.option("--family", type=click.Choice(TABLE_FAMILIES), default=None),
            click.option("--file", type=click.Path(exists=True, dir_okay=False), default=None),
            click.option("--n", type=int, default=None, help="Arity."),
            click.option("--p0", type=float, default=0.5, help="Bit probability for random tables."),
            click.option("--p", type=int, default=3, help="Odd prime for mod_p."),
            click.option("--xi", type=int, default=2, help="Degree bound for poly/planted."),
            click.option("--term-density", type=float, default=0.5),
            click.option("--noise", type=float, default=0.0, help="Noise fraction for planted."),
            click.option("--seed", type=int, default=None),
        ]
    ):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Decimation flows, phase classification, and near-polynomial probes
    for Boolean functions."""


def _parse_order(order_arg: str, n: int, steps: int | None, seed: int, t) -> tuple:
    k = steps if steps is not None else min(n, 12)
    if order_arg == "fixed":
        return tuple(range(1, k + 1))
    if order_arg == "random":
        return rg.sample_orders(n, 1, k, seed)[0]
    if order_arg == "all-when-small":
        labels = tuple(range(1, k + 1))
        if math.factorial(k) <= 720:
            if not rg.order_independence_check(t, labels):
                raise click.ClickException("order independence violated")
        return labels
    try:
        explicit = tuple(int(v) for v in order_arg.split(","))
    except ValueError:
        raise click.UsageError(f"bad --order {order_arg!r}") from None
    if steps is not None and steps != len(explicit):
        raise click.UsageError("--steps disagrees with explicit --order length")
    return explicit


@main.command("flow")
@_family_options
@click.option("--steps", type=int, default=None, help="Number of decimations.")
@click.option(
    "--order",
    default="fixed",
    help="fixed | random | all-when-small | comma-separated labels.",
)
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, help="Emit the trace as JSON.")
def cmd_flow(family, file, n, p0, p, xi, term_density, noise, seed, steps, order, out, as_json):
    """Decimate a table step by step and emit the density trace as CSV."""
    seed = _resolve_seed(seed)
    t = _load_table(file, family, n, p0, p, xi, term_density, noise, seed)
    order_labels = _parse_order(order, t.n, steps, seed, t)
    try:
        trace = flow.empirical_flow(t, order_labels)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if as_json:
        _emit(json.dumps(flow.trace_to_obj(trace), indent=2) + "\n", out)
    else:
        analytic = p0 if family == "random" else None
        _emit(flow.flow_trace_to_csv(trace, analytic_p0=analytic), out)


@main.command("sym-flow")
@click.option("--family", type=click.Choice(SYM_FAMILIES), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, default=3)
@click.option("--steps", type=int, required=True)
@click.option("--modulus", type=int, default=None, help="Track residues mod this (defaults to p for mod_p).")
@click.option("--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_sym_flow(family, n, p, steps, modulus, out, as_json):
    """Run the sum-dependent engine at large arity and emit densities."""
    f = _build_symmetric(family, n, p)
    if modulus is None and family == "mod_p":
        modulus = p
    try:
        result = symmetric.sym_flow(f, steps, modulus)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if result.cycle_period is not None:
        click.echo(
            f"residue cycle: start={result.cycle_start} period={result.cycle_period}",
            err=True,
        )
    if as_json:
        _emit(json.dumps(flow.trace_to_obj(result.trace), indent=2) + "\n", out)
    else:
        _emit(flow.flow_trace_to_csv(result.trace), out)


@main.command("classify")
@_family_options
@click.option("--engine", type=click.Choice(["auto", "table", "symmetric"]), default="auto")
@click.option("--steps", type=int, default=None)
@click.option("--burn-in", type=int, default=2)
@click.option("--tau-min", type=float, default=0.02)
@click.option("--c-composite", type=float, default=1.0)
@click.option("--generic-band", type=float, default=4.0)
@click.option("--orders", type=int, default=64, help="Sampled decimation orders.")
@click.option("--xi-max", type=int, default=4)
@click.option("--bound-c", type=float, default=1.0)
@click.option("--bound-alpha", type=float, default=1.0)
@click.option("--out", type=click.Path(), default=None)
def cmd_classify(
    family, file, n, p0, p, xi, term_density, noise, seed, engine, steps,
    burn_in, tau_min, c_composite, generic_band, orders, xi_max,
    bound_c, bound_alpha, out,
):
    """Classify a function by its flow and print the report as JSON."""
    seed = _resolve_seed(seed)
    cfg = flow.ClassifyConfig(
        burn_in=burn_in,
        tau_min=tau_min,
        composite_coeff=c_composite,
        generic_band=generic_band,
        n_orders=orders,
        xi_max=xi_max,
        bound_c=bound_c,
        bound_alpha=bound_alpha,
        steps=steps,
        seed=seed,
    )
    if engine == "auto":
        engine = (
            "symmetric"
            if family in SYM_FAMILIES and not file and (n or 0) > N_MAX
            else "table"
        )
    if engine == "symmetric":
        if family not in SYM_FAMILIES:
            raise click.UsageError(f"family {family!r} has no symmetric form")
        target = _build_symmetric(family, n, p)
    else:
        target = _load_table(file, family, n, p0, p, xi, term_density, noise, seed)
    report = flow.classify(target, cfg)
    _emit(flow.classification_to_json(report) + "\n", out)


@main.command("detect")
@_family_options
@click.option("--method", type=click.Choice(["exhaustive", "truncate", "sieve"]), required=True)
@click.option("--detect-xi", "detect_xi", type=int, default=None,
              help="Degree budget to probe (defaults to --xi).")
@click.option("--bound-c", type=float, default=1.0)
@click.option("--bound-alpha", type=float, default=1.0)
@click.option("--orders", type=int, default=8, help="Sampled orders for the sieve.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def cmd_detect(
    ctx, family, file, n, p0, p, xi, term_density, noise, seed, method,
    detect_xi, bound_c, bound_alpha, orders, out,
):
    """Probe for a nearby low-degree polynomial; exit 0/3/4 for
    fits-bound / fails-bound / capacity exceeded."""
    seed = _resolve_seed(seed)
    detect_xi = xi if detect_xi is None else detect_xi
    t = _load_table(file, family, n, p0, p, xi, term_density, noise, seed)
    try:
        if method == "exhaustive":
            rep = detector.exhaustive_nearest_polynomial(t, detect_xi, bound_c, bound_alpha)
        elif method == "truncate":
            rep = detector.anf_truncation(t, detect_xi, bound_c, bound_alpha)
        else:
            sample = rg.sample_orders(t.n, orders, detect_xi + 1, seed)
            rep = detector.derivative_sieve(t, detect_xi, sample, bound_c, bound_alpha)
    except detector.CapacityError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(4)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(detector.decomposition_to_json(rep) + "\n", out)
    ctx.exit(0 if rep.meets_bound else 3)


@main.command("count")
@click.option("--n", "n_list", required=True, help="Comma-separated arities.")
@click.option("--xi", "xi_arg", required=True, help="Comma-separated degree bounds, or 'sqrt'.")
@click.option("--bound-c", type=float, default=1.0)
@click.option("--bound-alpha", type=float, default=1.0)
@click.option("--out", type=click.Path(), default=None)
def cmd_count(n_list, xi_arg, bound_c, bound_alpha, out):
    """Emit the counting-bound sweep as CSV: n,xi,C,alpha,log2F,log2M,margin."""
    import mpmath as mp  # deferred so the other commands start without it
    try:
        ns = [int(v) for v in n_list.split(",")]
        if xi_arg == "sqrt":
            xis = [math.isqrt(v - 1) + 1 if v > 1 else 1 for v in ns]
        else:
            xis = [int(v) for v in xi_arg.split(",")]
            if len(xis) == 1:
                xis = xis * len(ns)
    except ValueError:
        raise click.UsageError("bad --n or --xi list") from None
    if len(xis) != len(ns):
        raise click.UsageError("--n and --xi lists differ in length")
    lines = ["n,xi,C,alpha,log2F,log2M,margin"]
    for n, xi in zip(ns, xis):
        try:
            pert = counting.log2_perturbation_count(n, xi, bound_c, bound_alpha)
            log2m = counting.log2_num_polynomials(n, xi).log2_exact
            margin = counting.separation_margin(n, xi, bound_c, bound_alpha)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        lines.append(
            f"{n},{xi},{bound_c},{bound_alpha},"
            f"{mp.nstr(pert.log2_bound, 17)},{log2m},{mp.nstr(margin, 17)}"
        )
    _emit("\n".join(lines) + "\n", out)


@main.command("gen")
@_family_options
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(family, file, n, p0, p, xi, term_density, noise, seed, out):
    """Write a generated family to a BFRG table file."""
    seed = _resolve_seed(seed)
    t = _load_table(file, family, n, p0, p, xi, term_density, noise, seed)
    write_table(t, out)
    click.echo(f"wrote arity-{t.n} table to {out}", err=True)


if __name__ == "__main__":
    main()
