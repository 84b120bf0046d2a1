"""Batch command-line interface: validation, quantity tables, regions, sweeps.

Outputs are machine-first (JSON and CSV) and deterministic: identical inputs
produce byte-identical files.  Exit status is 0 on success, 1 on validation
failures, 2 on parse/file errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .channel import (
    ChannelFormatError,
    ChannelSpec,
    _check_known,
    control_state_hk,
    control_state_t1,
    json_strings,
    load_channel,
    load_distribution,
    read_json,
)
from .entropic import (
    SMOOTHING_STRATEGIES,
    CommutationError,
    ConvergenceError,
    ToleranceParams,
    binary_entropy,
    classical_np_oracle,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    fact_bound,
    hypothesis_testing_divergence,
    max_relative_entropy,
    relative_entropy,
    smooth_max_relative_entropy,
    term_name,
    von_neumann_entropy,
)
from .operators import OperatorError, fidelity, purified_distance, trace_distance
from .regions import (
    DELTA_SOURCES,
    PENALTY_MODES,
    REGION_THEOREMS,
    PenaltyMode,
    PolyRow,
    RatePolytope,
    VertexEnumeration,
    fourier_motzkin,
    qmac_inner_bound,
    region_builder,
    sweep_union,
    vertices_2d,
)
from .states import joint_and_product


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _params_from_args(args) -> ToleranceParams:
    return ToleranceParams(
        eps=args.eps,
        eps_prime=args.eps_prime,
        delta=args.delta,
        delta_prime=args.delta_prime,
        theta=args.theta,
        big_o_constant=args.big_o,
    )


def _params_dict(params: ToleranceParams) -> dict:
    return {**vars(params), "eta": params.eta}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, required=True, help="decoding/smoothing parameter in (0,1)")
    parser.add_argument("--eps-prime", type=float, default=0.1, dest="eps_prime")
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--delta-prime", type=float, default=0.2, dest="delta_prime")
    parser.add_argument("--theta", type=float, default=math.inf,
                        help="secrecy threshold (default: +inf)")
    parser.add_argument("--big-o", type=float, default=0.0, dest="big_o",
                        help="value substituted for the O(1) constants")


def _row_dict(row: PolyRow, variables) -> dict:
    return {
        **vars(row),
        "coeffs": {v: c for v, c in zip(variables, row.coeffs) if c != 0.0},
        "terms": [vars(t) for t in row.terms],
    }


def _region_report(poly: RatePolytope, enum: VertexEnumeration | None, params: ToleranceParams,
                   penalties: PenaltyMode, smoothing: str, channel: ChannelSpec,
                   theorem: str) -> dict:
    report = {
        "tool": {"name": "oneshot-secrecy", "version": __version__},
        "theorem": theorem,
        "channel": channel.name,
        "params": _params_dict(params),
        "penalties": {"mode": penalties.mode, "big_o_constant": params.big_o_constant},
        "smoothing": smoothing,
        "variables": list(poly.variables),
        "rows": [_row_dict(r, poly.variables) for r in poly.rows],
    }
    if enum is not None:
        report["vertices"] = [[x, y] for x, y in enum.vertices]
        report["flags"] = {"degenerate": enum.degenerate, "unbounded": enum.unbounded}
    for key in ("secrecy", "randomizer_plan"):
        if key in poly.meta:
            report[key] = poly.meta[key]
    return report


def _write_json(payload: dict, path: str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_validate(args) -> int:
    spec = load_channel(args.channel)
    print(f"channel {spec.name!r}: {len(spec.states)} states, dims "
          f"({spec.outputs['Y1']},{spec.outputs['Y2']},{spec.outputs['Z']}): OK")
    if args.dist is not None:
        dist = load_distribution(args.dist)
        dist.validate(spec)
        print(f"distribution ({dist.kind} form): OK")
    return 0


def _control_state(channel, dist):
    if dist.kind == "t1":
        return control_state_t1(channel, dist)
    return control_state_hk(channel, dist)


def _parse_grouping(text: str):
    cond = None
    if "|" in text:
        text, cond = text.split("|", 1)
        cond = cond.strip()
    try:
        left, right = text.split(":")
    except ValueError:
        raise ChannelFormatError(f"grouping {text!r} must look like 'A,B:C,D' or 'A:B|Q'") from None
    part_a = [r.strip() for r in left.split(",") if r.strip()]
    part_b = [r.strip() for r in right.split(",") if r.strip()]
    if not part_a or not part_b:
        raise ChannelFormatError(f"grouping {text!r} has an empty side")
    return part_a, part_b, cond


def _named(kind: str, part_a, part_b, solve, *args) -> float:
    """``solve(*args)``, whose failure names the term as a region's or a conditional row's does."""
    try:
        return solve(*args)
    except (ConvergenceError, CommutationError) as exc:
        raise type(exc)(f"{term_name(kind, part_a, part_b)}: {exc}") from None


def cmd_quantities(args) -> int:
    channel = load_channel(args.channel)
    dist = load_distribution(args.dist)
    state = _control_state(channel, dist)
    params = _params_from_args(args)
    groupings = args.grouping or ["X1:Y1|Q" if dist.kind == "t1" else "X10,X11:Y1"]
    rows = []
    for text in groupings:
        part_a, part_b, cond = _parse_grouping(text)
        if cond is not None:
            rows.append((text, "ht_mutual_info", cond_smooth_ht_mi(state, part_a, part_b, cond, params.eps)))
            rows.append((text, "smooth_max_mutual_info",
                         cond_smooth_max_mi(state, part_a, part_b, cond, params.eta, args.smoothing)))
            continue
        joint, product = joint_and_product(state, part_a, part_b)
        rows.append((text, "ht_mutual_info",
                     _named("ht", part_a, part_b, hypothesis_testing_divergence, joint, product, params.eps)))
        rows.append((text, "max_mutual_info", max_relative_entropy(joint, product)))
        rows.append((text, "smooth_max_mutual_info", _named("max", part_a, part_b, smooth_max_relative_entropy,
                                                            joint, product, params.eta, args.smoothing)))
        rows.append((text, "relative_entropy", relative_entropy(joint, product)))
        rows.append((text, "fact_bound", fact_bound(joint, product, params.eps)))
        rows.append((text, "trace_distance", trace_distance(joint, product)))
        rows.append((text, "fidelity", fidelity(joint, product)))
        rows.append((text, "purified_distance", purified_distance(joint, product)))
        rows.append((text, "entropy_joint", von_neumann_entropy(joint)))
    rows.append(("-", "binary_entropy(eps)", binary_entropy(params.eps)))
    width = max(len(r[0]) for r in rows) + 2
    for grouping, name, value in rows:
        print(f"{grouping:<{width}}{name:<26}{_fmt(value)}")
    return 0


def _build_region(args, channel, dist, params, penalties):
    if args.theorem == "qmac":
        state = _control_state(channel, dist)
        if dist.kind == "hk":
            senders = ["X10", "X11", "X20"] if args.receiver == "Y1" else ["X20", "X22", "X10"]
        else:
            senders = ["X1", "X2"]
        return qmac_inner_bound(state, senders, args.receiver, params.eps, penalties)
    build = region_builder(args.theorem)
    if args.theorem == "t1":
        return build(channel, dist, params, penalties, smoothing=args.smoothing,
                     delta_source=args.delta_source)
    return build(channel, dist, params, penalties, smoothing=args.smoothing)


def cmd_region(args) -> int:
    channel = load_channel(args.channel)
    dist = load_distribution(args.dist)
    params = _params_from_args(args)
    penalties = PenaltyMode(args.penalties)
    poly = _build_region(args, channel, dist, params, penalties)
    enum = vertices_2d(poly) if len(poly.variables) == 2 else None
    _write_json(_region_report(poly, enum, params, penalties, args.smoothing, channel, args.theorem),
                args.out)
    if enum is not None:
        _write_csv(args.csv, "R1,R2", enum.vertices)
        flag = " (degenerate)" if enum.degenerate else ""
        print(f"{args.theorem}: {len(poly.rows)} rows, {len(enum.vertices)} vertices{flag}")
        print(f"wrote {args.out} and {args.csv}")
    else:
        print(f"{args.theorem}: {len(poly.rows)} rows over {poly.variables}")
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    channel = load_channel(args.channel)
    params = _params_from_args(args)
    penalties = PenaltyMode(args.penalties)
    result = sweep_union(
        channel,
        args.theorem,
        params,
        penalties,
        grid=args.grid,
        q_size=args.q_size,
        rays=args.rays,
        max_evals=args.max_evals,
        smoothing=args.smoothing,
    )
    _write_csv(args.csv, "direction,R1,R2", result.rows())
    print(f"sweep: {result.evaluations} distributions, {len(result.thetas)} rays, "
          f"{result.degenerate_count} degenerate; wrote {args.csv}")
    return 0


def _float_list(text: str) -> list[float]:
    """A comma-separated list of numbers; one that does not parse is a parse error naming its flag."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None


def cmd_oracle_np(args) -> int:
    beta, divergence = classical_np_oracle(args.p, args.q, args.eps)
    print(_fmt(divergence))
    if args.verbose:
        print(f"beta={_fmt(beta)}")
    return 0


def _poly_from_document(doc: dict) -> RatePolytope:
    try:
        variables = json_strings(doc["variables"])
        entries = [*doc.get("rows", []), *doc.get("equalities", [])]
        undeclared = sorted({k for entry in entries for k in entry["coeffs"]} - set(variables))
        rows = []
        for i, row in enumerate(doc.get("rows", [])):
            coeffs = tuple(float(row["coeffs"].get(v, 0.0)) for v in variables)
            rows.append(PolyRow(coeffs, float(row["bound"]), str(row.get("tag", f"row{i}"))))
        for i, eq in enumerate(doc.get("equalities", [])):
            coeffs = tuple(float(eq["coeffs"].get(v, 0.0)) for v in variables)
            value = float(eq.get("value", 0.0))
            rows.append(PolyRow(coeffs, value, f"eq{i}+"))
            rows.append(PolyRow(tuple(-c for c in coeffs), -value, f"eq{i}-"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ChannelFormatError(f"malformed polytope document: {exc!r}") from None
    repeated = sorted({v for v in variables if variables.count(v) > 1})
    if repeated:
        raise OperatorError(f"variables declared more than once: {repeated}")
    if undeclared:
        raise OperatorError(f"coefficients on undeclared variables {undeclared}")
    # a misspelt "value" would read as 0; other keys stay open, so a region report is an fm input
    for eq in doc.get("equalities", []):
        _check_known("equality", eq, ("coeffs", "value"))
    for row in rows:
        if not all(math.isfinite(x) for x in (*row.coeffs, row.bound)):
            raise OperatorError(f"polytope row {row.tag!r} has a non-finite coefficient or bound")
    return RatePolytope(variables, rows)


def cmd_fm(args) -> int:
    poly = _poly_from_document(read_json(args.input, "polytope"))
    eliminate = [v.strip() for v in args.eliminate.split(",") if v.strip()]
    projected = fourier_motzkin(poly, eliminate)
    payload = {
        "variables": list(projected.variables),
        "rows": [
            {"coeffs": {v: c for v, c in zip(projected.variables, r.coeffs) if c != 0.0},
             "bound": r.bound, "tag": r.tag}
            for r in projected.rows
        ],
    }
    if args.out:
        _write_json(payload, args.out)
        print(f"projected onto {projected.variables}; wrote {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshot-secrecy",
        description="One-shot divergences and secrecy rate regions for "
                    "classical-quantum interference wiretap channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a channel (and optionally a distribution) file")
    p.add_argument("channel")
    p.add_argument("--dist", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("quantities", help="print divergence tables for register groupings")
    p.add_argument("--channel", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--grouping", action="append",
                   help="register grouping like 'X1:X2,Y1' or 'X1:X2,Y1|Q' (repeatable)")
    p.add_argument("--smoothing", choices=SMOOTHING_STRATEGIES, default="none")
    _add_param_flags(p)
    p.set_defaults(func=cmd_quantities)

    p = sub.add_parser("region", help="compute a rate region and export JSON/CSV")
    p.add_argument("--channel", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--theorem", choices=(*REGION_THEOREMS, "qmac"), required=True)
    p.add_argument("--receiver", choices=("Y1", "Y2"), default="Y1",
                   help="receiver for the qmac selector")
    p.add_argument("--penalties", choices=PENALTY_MODES, default="paper")
    p.add_argument("--smoothing", choices=SMOOTHING_STRATEGIES, default="none")
    p.add_argument("--delta-source", choices=DELTA_SOURCES, default="delta",
                   dest="delta_source",
                   help="which slack parameter feeds the quarter-log penalty term")
    p.add_argument("--out", default="region.json")
    p.add_argument("--csv", default="region_vertices.csv")
    _add_param_flags(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="sweep input distributions and export the union frontier")
    p.add_argument("--channel", required=True)
    p.add_argument("--theorem", choices=REGION_THEOREMS, required=True)
    p.add_argument("--grid", type=int, default=3, help="points per simplex edge (>= 2)")
    p.add_argument("--q-size", type=int, default=1, dest="q_size")
    p.add_argument("--rays", type=int, default=91)
    p.add_argument("--max-evals", type=int, default=20000, dest="max_evals")
    p.add_argument("--penalties", choices=PENALTY_MODES, default="paper")
    p.add_argument("--smoothing", choices=SMOOTHING_STRATEGIES, default="none")
    p.add_argument("--csv", default="frontier.csv")
    _add_param_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-np", help="classical Neyman-Pearson oracle on inline vectors")
    p.add_argument("--p", type=_float_list, required=True, help="comma-separated distribution")
    p.add_argument("--q", type=_float_list, required=True, help="comma-separated distribution")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_oracle_np)

    p = sub.add_parser("fm", help="project a polytope file by eliminating variables")
    p.add_argument("--input", required=True)
    p.add_argument("--eliminate", required=True, help="comma-separated variable names")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ChannelFormatError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
