"""Command-line interface.

Exit status: 0 on success, 1 on a domain error (bad expression, rejected data
file, desk-scale bound), 2 on a usage error.  --json switches every subcommand
to the schemas documented in qde.schemas; text output is for humans only.

Each subcommand handler prints nothing and returns its result twice: a JSON
payload and a text (anything print renders).  main prints one of the two.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classgroup import (
    _check_bound,
    class_group_structure,
    class_number_maximal,
    unit_index,
)
from .errors import QdeError
from .harness import parse_curves, validate
from .ktheory import crossed_product_k0
from .lattice import QuadraticOrder, companion_tori, endomorphism_ring
from .predict import predict
from .quadratic import cf_expand, fundamental_unit, parse_theta

__all__ = ["main"]


def _resolve_order(args) -> QuadraticOrder:
    if args.theta is not None:
        if args.f is not None:
            raise UsageError("--f cannot be combined with --theta")
        order = endomorphism_ring(parse_theta(args.theta))
        _check_bound(order.D, order.f, _max_disc(args))
        return order
    if args.D is None:
        raise UsageError("either --theta or --D (with optional --f) is required")
    f = 1 if args.f is None else args.f
    if f < 1:  # before the bound, which squares f
        raise ValueError(f"conductor must be >= 1, got {f}")
    _check_bound(args.D, f, _max_disc(args))  # before D is factored
    return QuadraticOrder(args.D, f)


class UsageError(Exception):
    pass


def _max_disc(args) -> int | None:
    if getattr(args, "max_disc", None) is not None:
        return args.max_disc
    env = os.environ.get("QDE_MAX_DISC")
    if not env:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"QDE_MAX_DISC {exc}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _cmd_cf(args):
    theta = parse_theta(args.theta)
    cf = cf_expand(theta)
    return {"theta": str(theta), "preperiod": cf.preperiod, "period": cf.period}, cf


def _cmd_unit(args):
    epsilon, norm = fundamental_unit(args.D)
    expr = str(epsilon.to_irrational())
    return (
        {"D": args.D, "x": epsilon.x, "y": epsilon.y, "norm": norm, "expr": expr},
        f"epsilon = {epsilon} = {expr}, norm = {norm}",
    )


def _cmd_order(args):
    order = endomorphism_ring(parse_theta(args.theta))
    return (
        {"D": order.D, "f": order.f, "discriminant": order.discriminant},
        f"{order} (D={order.D}, f={order.f}, discriminant {order.discriminant})",
    )


def _cmd_classgroup(args):
    order = _resolve_order(args)
    structure = class_group_structure(order, max_disc=_max_disc(args))
    payload = {
        "D": order.D,
        "f": order.f,
        "discriminant": order.discriminant,
        "h": structure.order,  # checked against the conductor formula
        "h_field": class_number_maximal(order.D),
        "unit_index": unit_index(order),
        "invariant_factors": structure.invariant_factors,
    }
    return payload, (
        f"h = {payload['h']} for {order}; Cl = {structure}; "
        f"h(field) = {payload['h_field']}, unit index e_f = {payload['unit_index']}"
    )


def _cmd_companions(args):
    order = _resolve_order(args)
    exprs = [str(t) for t in companion_tori(order)]
    return (
        {"D": order.D, "f": order.f, "count": len(exprs), "companions": exprs},
        "\n".join(f"companion {i}: {expr}" for i, expr in enumerate(exprs)),
    )


def _cmd_k0(args):
    theta = parse_theta(args.theta)
    descriptor = crossed_product_k0(theta, max_disc=_max_disc(args))
    galois = descriptor.galois_group
    payload = {
        "theta": str(theta),
        "D": descriptor.order.D,
        "f": descriptor.order.f,
        "k0_rank": descriptor.k0_rank,
        "trace_generators": descriptor.trace_generators,
        "galois_group": {"invariant_factors": galois.invariant_factors, "order": galois.order},
    }
    return payload, (
        f"K0 rank = {descriptor.k0_rank}; trace generators "
        f"[{', '.join(descriptor.trace_generators)}]; Galois group {galois}"
    )


def _cmd_predict(args):
    theta = parse_theta(args.theta)
    p = predict(theta, max_disc=_max_disc(args))
    payload = {
        "D": p.order.D,
        "f": p.order.f,
        "h": p.h_lambda,
        "rank": p.rank,
        "sha": {"invariant_factors": p.sha_structure.invariant_factors, "order": p.sha_order},
        "k0_rank": p.k0_rank,
    }
    return payload, (
        f"rank = {p.rank}, Sha = {p.sha_structure} (order {p.sha_order}), "
        f"K0 rank = {p.k0_rank} for {p.order}"
    )


def _cmd_validate(args):
    report = validate(parse_curves(args.input, format=args.format), jobs=args.jobs)
    return report.to_json_dict(), report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qde",
        description=(
            "Exact computations for real quadratic irrationals: continued "
            "fractions, fundamental units, class groups of orders, crossed-"
            "product K0 descriptors, rank/Sha predictions, and curve-data "
            "validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)  # parser reports the usage errors
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        return p

    p = add("cf", _cmd_cf, "periodic continued fraction of theta")
    p.add_argument("--theta", required=True, help='expression like "(1+sqrt(5))/2"')

    p = add("unit", _cmd_unit, "fundamental unit of Q(sqrt(D))")
    p.add_argument("--D", type=int, required=True, help="squarefree radicand > 1")

    p = add("order", _cmd_order, "endomorphism order of Z + theta*Z")
    p.add_argument("--theta", required=True)

    for name, func, help_text in (
        ("classgroup", _cmd_classgroup, "class number and class group of an order"),
        ("companions", _cmd_companions, "one quadratic irrational per ideal class"),
    ):
        p = add(name, func, help_text)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--theta", help="derive the order from this expression")
        source.add_argument("--D", type=int, help="squarefree radicand > 1")
        p.add_argument("--f", type=int, help="conductor (default 1; not with --theta)")
        p.add_argument("--max-disc", type=_positive_int, help="desk-scale discriminant ceiling")

    p = add("k0", _cmd_k0, "K0 descriptor of the crossed product for theta")
    p.add_argument("--theta", required=True)
    p.add_argument("--max-disc", type=_positive_int)

    p = add("predict", _cmd_predict, "rank / Sha / K0 prediction for theta")
    p.add_argument("--theta", required=True)
    p.add_argument("--max-disc", type=_positive_int)

    p = add("validate", _cmd_validate, "check curve data against |Sha| = (1+rank)^2")
    p.add_argument("--input", required=True, help="path to the data file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted for compatibility (>= 1); validation always runs serially",
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a unit can have far more than the 4,300 digits Python (3.10.7+) converts
    # by default; lift the limit while the result is formatted, then restore it
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload, text = args.func(args)
        print(json.dumps(payload, separators=(",", ":")) if args.json else text)
        return 0
    except UsageError as exc:
        args.parser.error(str(exc))  # the subcommand's usage; exits with status 2
        return 2
    except (QdeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
