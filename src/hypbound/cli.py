"""The ``hypbound`` command line: point distances, map degrees, verification
campaigns, and the three demo tables."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Optional

# each command imports what it runs, so that one which draws nothing, such as
# dist, compiles no map, bound, report or harness code and loads no numpy
from .config import (DEFAULT_MAX_RADIUS, DEFAULT_MIN_SEP, DEFAULT_TOLERANCE, THEOREMS,
                     CampaignConfig)
from .errors import HypboundError, UsageError
from .models import Model, ModelPoint, dist

_MODEL_TOKENS = {
    "disc": Model.DISC, "d": Model.DISC,
    "upper": Model.UPPER_HALF_PLANE, "halfplane": Model.UPPER_HALF_PLANE,
    "h": Model.UPPER_HALF_PLANE,
    "right": Model.RIGHT_HALF_PLANE, "righthalf": Model.RIGHT_HALF_PLANE,
    "k": Model.RIGHT_HALF_PLANE,
    "punctured": Model.PUNCTURED_DISC, "dstar": Model.PUNCTURED_DISC,
}


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` notation, e.g. 0.3+0.5i, -2i, 1."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc


def parse_model(token: str) -> Model:
    try:
        return _MODEL_TOKENS[token.strip().lower()]
    except KeyError as exc:
        raise UsageError(f"unknown model {token!r}; use disc, halfplane, "
                         "righthalf, or punctured") from exc


def _parse_kv(rest: str) -> dict:
    out = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise UsageError(f"malformed parameter {item!r}")
            if key.strip() in out:
                raise UsageError(f"parameter {key.strip()!r} given twice")
            out[key.strip()] = value.strip()
    return out


@contextmanager
def _malformed_as_usage(what: str):
    """Re-raise the AttributeError, KeyError, TypeError or ValueError of
    parsing malformed input as a UsageError naming ``what``; library errors
    pass through."""
    try:
        yield
    except HypboundError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def parse_map_spec(text: str):
    """A map spec is either the JSON serialization of a map or a shorthand
    like ``power:m=3``, ``exp:m=2,c=0.5``, ``identity``; pipe-separated
    shorthands compose left to right."""
    import json

    from .holomaps import Composition, PuncturedExp, PuncturedPower, map_from_dict

    text = text.strip()
    with _malformed_as_usage(f"map spec {text!r}"):
        if text.startswith("{"):
            return map_from_dict(json.loads(text))
        parts = []
        for chunk in text.split("|"):
            name, _, rest = chunk.strip().partition(":")
            kv = _parse_kv(rest)
            if name == "power":
                parts.append(PuncturedPower(float(kv.get("theta", 0.0)), int(kv["m"])))
            elif name == "exp":
                parts.append(PuncturedExp(float(kv.get("theta", 0.0)),
                                          int(kv["m"]), float(kv.get("c", 0.0))))
            elif name == "identity":
                parts.append(PuncturedPower(0.0, 1))
            else:
                raise UsageError(f"unknown map shorthand {chunk!r}")
        return parts[0] if len(parts) == 1 else Composition(tuple(parts))


def parse_family_spec(text: str) -> tuple:
    """``name`` or ``name:k=v,...``; short keys deg/m/c map onto the sampler
    parameters, and each may be given once."""
    name, _, rest = text.strip().partition(":")
    kv = _parse_kv(rest)
    params: dict = {}
    with _malformed_as_usage(f"family spec {text!r}"):
        for key, value in kv.items():
            if key in ("deg", "max_degree"):
                param, convert = "max_degree", int
            elif key in ("m", "max_power"):
                param, convert = "max_power", int
            elif key in ("c", "max_decay"):
                param, convert = "max_decay", float
            else:
                raise UsageError(f"unknown family parameter {key!r}")
            if param in params:  # named twice, through its short key or its own
                raise UsageError(f"family parameter {param!r} given twice")
            params[param] = convert(value)
    return name, params


@contextmanager
def _writing(path: str):
    """Re-raise the OSError of writing ``path`` as a UsageError naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _emit_rows(rows: list, out: Optional[str]) -> int:
    if out:
        from .harness import write_rows_csv

        with _writing(out):
            write_rows_csv(rows, out)
    else:
        import json

        print(json.dumps(rows, indent=2))
    return 0


def _cmd_dist(args) -> int:
    model = parse_model(args.model)
    u = ModelPoint(parse_complex(args.u), model)
    v = ModelPoint(parse_complex(args.v), model)
    print(format(dist(u, v), ".17g"))
    return 0


def _cmd_degree(args) -> int:
    import json

    from .covering import degree_contour

    result = degree_contour(parse_map_spec(args.map_spec))
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_verify(args) -> int:
    family, params = parse_family_spec(args.family)
    cfg = CampaignConfig(
        theorem=args.theorem, family=family, family_params=params,
        samples=args.samples, seed=args.seed, min_sep=args.min_sep,
        max_radius=args.max_radius, tolerance=args.tolerance)
    if args.out:  # truncated now, as a shell redirect would: an unwritable path ends here
        _emit("", args.out)
    from .harness import run_campaign

    report = run_campaign(cfg)
    _emit(report.to_json(), args.out)
    n_viol = len(report.violations)
    print(f"{args.theorem}: {cfg.samples} samples, {n_viol} violations, "
          f"min margin {report.margin_stats['min']:.3e}", file=sys.stderr)
    return 0 if n_viol == 0 else 1


def _cmd_halfplane(args) -> int:
    from .harness import halfplane_growth

    with _malformed_as_usage(f"--n {args.n!r}"):
        n_values = [int(tok) for tok in args.n.split(",") if tok]
    return _emit_rows(halfplane_growth(n_values), args.out)


def _cmd_counterexample(args) -> int:
    from .harness import counterexample_demo

    report = counterexample_demo(pairs=args.pairs, seed=args.seed)
    _emit(report.to_json(), args.out)
    contraction = report.extras["contraction"]
    expected = bool(report.violations) and contraction["failures"] == 0
    print("counterexample reproduced" if expected else "counterexample NOT reproduced",
          file=sys.stderr)
    return 0 if expected else 1


def _cmd_convergence(args) -> int:
    from .harness import convergence_demo

    z = ModelPoint.disc(parse_complex(args.z))
    return _emit_rows(convergence_demo(args.budget, z, rows=args.rows, seed=args.seed), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypbound",
        description="Hyperbolic metric computations and empirical checks of "
                    "distortion bounds for holomorphic self-maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="hyperbolic distance between two points")
    p.add_argument("model", help="disc | halfplane | righthalf | punctured")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("degree", help="winding degree of a punctured-disc map")
    p.add_argument("map_spec", help="JSON map or shorthand like power:m=3")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("verify", help="run a sampling campaign against a bound")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    p.add_argument("--family", required=True,
                   help="blaschke[:deg=N] | automorphism | mix[:deg=N] | "
                        "realpart | fixing[:deg=N] | exp[:m=N,c=X]")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--min-sep", type=float, default=DEFAULT_MIN_SEP)
    p.add_argument("--max-radius", type=float, default=DEFAULT_MAX_RADIUS)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("halfplane", help="half-plane translation growth table")
    p.add_argument("--n", default="10,100,1000,10000",
                   help="comma-separated list of n values (each >= 2)")
    p.add_argument("--out", default=None, help="write CSV here")
    p.set_defaults(func=_cmd_halfplane)

    p = sub.add_parser("counterexample",
                       help="non-holomorphic contraction that defeats the two-point bound")
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("convergence", help="summability transfer table")
    p.add_argument("--budget", default="inv_square",
                   help="inv_square | inv_cube | inv_power:p=X (p > 1)")
    p.add_argument("--z", required=True, help="disc point, e.g. 0.3+0.5i")
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write CSV here")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except HypboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the array it could not allocate; a bare one says nothing
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: silence the interpreter's last flush; 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
