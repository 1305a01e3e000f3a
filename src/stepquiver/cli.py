"""Command-line surface: validate | threads | koszul | gldim | integrate |
stieltjes | elemfn | iposet-add.

Text output by default, ``--json`` for machine output (keys sorted, two-space
indent).  Exit codes: 0 success, 1 domain error (including a file that
cannot be read as UTF-8 text), 2 usage error.  Identical invocations print
byte-identical output.

The quiver subcommands need only :mod:`stepquiver.quiver` and
:mod:`stepquiver.qv`, so they start without numpy; the numeric handlers
import their layers, and numpy with them, when they run.  ``gldim`` with
the Stieltjes route (``--method stieltjes`` or the default ``all``) loads
them inside :mod:`stepquiver.quiver`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional

from .errors import StepQuiverError
from .quiver import (
    FORBIDDEN,
    PERMITTED,
    GentlePresentation,
    ValidationReport,
    enumerate_threads,
    gldim_report,
    global_dimension,
    koszul_dual,
    validate_gentle,
)
from .qv import QuiverDoc, doc_from_presentation, emit_dsl, parse_quiver_dsl

if TYPE_CHECKING:
    from .integrate import Enclosure


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_doc(path: str) -> QuiverDoc:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StepQuiverError(f"{path}: not UTF-8 text ({exc.reason} "
                                  f"at byte {exc.start})") from None
    return parse_quiver_dsl(text)


def _load_presentation(path: str, strict: bool = False):
    doc = _load_doc(path)
    return doc, validate_gentle(doc.quiver(), doc.relations, strict=strict)


def _require_presentation(path: str) -> tuple[QuiverDoc, GentlePresentation]:
    doc, result = _load_presentation(path)
    if isinstance(result, ValidationReport):
        raise StepQuiverError(
            f"{path}: not a gentle presentation "
            f"({len(result.violations)} violation(s); run `validate` for details)"
        )
    return doc, result


def _print_enclosure(enc: Enclosure, as_json: bool, extra: Optional[dict] = None) -> None:
    if as_json:
        payload = enc.to_json()
        payload.update(extra or {})
        _emit_json(payload)
    else:
        sys.stdout.write(
            f"enclosure = [{enc.lower!r}, {enc.upper!r}]  "
            f"width = {enc.width!r}  converged = {str(enc.converged).lower()}\n"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    doc, result = _load_presentation(args.file, strict=args.strict)
    if isinstance(result, ValidationReport):
        if args.json:
            _emit_json(result.to_json())
        else:
            sys.stdout.write(f"{doc.name}: not gentle\n")
            for v in result.violations:
                sys.stdout.write(f"  [{v.rule_set}] condition {v.condition}: {v.witness}\n")
        return 1
    q = result.quiver
    if args.json:
        _emit_json({"ok": True, "violations": [],
                    "vertices": len(q.vertices), "arrows": len(q.arrows),
                    "relations": len(result.relations)})
    else:
        sys.stdout.write(
            f"{doc.name}: gentle presentation ({len(q.vertices)} vertices, "
            f"{len(q.arrows)} arrows, {len(result.relations)} relations)\n"
        )
    return 0


def _cmd_threads(args) -> int:
    _, p = _require_presentation(args.file)
    kinds = [FORBIDDEN, PERMITTED] if args.kind == "both" else [args.kind]
    found = {k: enumerate_threads(p, k) for k in kinds}
    if args.json:
        _emit_json({k: [t.to_json() for t in ts] for k, ts in found.items()})
    else:
        for k in kinds:
            ts = found[k]
            sys.stdout.write(f"{k} ({len(ts)}):\n")
            for t in ts:
                sys.stdout.write(f"  {'*'.join(t.arrows)}\n")
    return 0


def _cmd_koszul(args) -> int:
    doc, p = _require_presentation(args.file)
    dual = koszul_dual(p)
    out = doc_from_presentation(doc.name + "_dual", dual)
    if args.json:
        payload = dual.to_json()
        payload["name"] = out.name
        _emit_json(payload)
    else:
        sys.stdout.write(emit_dsl(out))
    return 0


def _cmd_gldim(args) -> int:
    _, p = _require_presentation(args.file)
    if args.method == "all":
        report = gldim_report(p)
        if args.json:
            _emit_json(report)
        else:
            mv = report["method_values"]
            sys.stdout.write(
                f"gl.dim = {report['gldim']} (threads={mv['threads']}, "
                f"integral={mv['integral']}, stieltjes={mv['stieltjes']})\n"
            )
    else:
        value = global_dimension(p, args.method)
        if args.json:
            _emit_json({"gldim": value, "method_values": {args.method: value}})
        else:
            sys.stdout.write(f"gl.dim = {value} ({args.method}={value})\n")
    return 0


def _integrand(args):
    """``--fn`` and ``--domain`` as an integrand and its interval: a step
    literal widened so its ambient covers the domain (it is 0 there), or
    the expression on the domain :func:`~stepquiver.dsl.ensure_proper`
    checks (and shrinks, with ``--truncate``)."""
    from .dsl import ensure_proper, parse_fn_expr, step_literal
    from .measure import box1, make_interval
    from .stepfn import with_ambient

    expr = parse_fn_expr(args.fn)
    lo, hi = args.domain
    step = step_literal(expr)
    if step is None:
        return expr, ensure_proper(expr, (lo, hi), truncate=args.truncate)
    amb = step.ambient.factors[0]
    if lo < amb.lo or hi > amb.hi:
        step = with_ambient(step, box1(min(lo, amb.lo), max(hi, amb.hi)))
    return step, make_interval(lo, hi)


def _cmd_integrate(args) -> int:
    import numpy as np

    from .dsl import monotone_pieces
    from .integrate import Enclosure, integrate_enclosure, integrate_step
    from .stepfn import StepFunction

    with np.errstate(all="ignore"):
        fn, domain = _integrand(args)
        if isinstance(fn, StepFunction):
            value = integrate_step(fn, domain)
            enc = Enclosure(value, value, True)
        else:
            enc = integrate_enclosure(fn, domain, monotone_pieces(fn, domain), tol=args.tol)
    _print_enclosure(enc, args.json)
    return 0


def _cmd_stieltjes(args) -> int:
    import numpy as np

    from .integrate import stieltjes_integrate
    from .measure import identity_measure, log_power_measure

    phi = (log_power_measure(args.log_power) if args.log_power is not None
           else identity_measure())
    with np.errstate(all="ignore"):
        fn, domain = _integrand(args)
        value = stieltjes_integrate(fn, phi, domain, tol=args.tol)
    if args.json:
        _emit_json({"value": value, "measure": phi.label, "tol": args.tol})
    else:
        sys.stdout.write(f"value = {value!r}\n")
    return 0


# --name -> (function in stepquiver.elemfn, whether it takes --at)
_ELEMFN = {
    "asin": ("asin_cat", True),
    "acos": ("acos_cat", True),
    "sin": ("sin_cat", True),
    "cos": ("cos_cat", True),
    "ln": ("ln_cat", True),
    "exp": ("exp_cat", True),
    "K": ("K_constant", False),
}


def _cmd_elemfn(args) -> int:
    from . import elemfn

    fname, needs_point = _ELEMFN[args.name]
    fn = getattr(elemfn, fname)
    if needs_point and args.at is None:
        raise StepQuiverError(f"elemfn --name {args.name} requires --at")
    if not needs_point and args.at is not None:
        raise StepQuiverError(f"elemfn --name {args.name} takes no --at")
    call_args = [] if args.at is None else [args.at]
    if args.tol is not None:
        call_args.append(args.tol)
    enc = fn(*call_args)
    extra = {"name": args.name}
    if needs_point:
        extra["at"] = args.at
    _print_enclosure(enc, args.json, extra)
    return 0


def _cmd_iposet_add(args) -> int:
    from .dsl import parse_fn_expr, step_literal
    from .iposet import add_elements, classify_case, poset_element
    from .measure import box1, make_interval
    from .stepfn import with_ambient

    expr = parse_fn_expr(args.fn)
    step = step_literal(expr)
    if step is None:
        raise StepQuiverError(
            "iposet-add needs a step-function literal "
            "(a constant combination of indicator(a,b) terms)"
        )
    if args.ambient is not None:
        lo, hi = args.ambient
        step = with_ambient(step, box1(lo, hi))
    e1 = poset_element(step, make_interval(*args.first))
    e2 = poset_element(step, make_interval(*args.second))
    tag = classify_case(e1.interval, e2.interval)
    pair = add_elements(e1, e2)
    if args.json:
        payload = pair.to_json()
        payload["case"] = tag.value
        _emit_json(payload)
    else:
        boxes = ", ".join(f"[{b[0][0]!r}, {b[0][1]!r}]" for b in pair.set.to_json())
        sys.stdout.write(f"case = {tag.value}\nvalue = {pair.value!r}\nset = {boxes}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepquiver",
        description="Step-function integration and gentle-quiver calculations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(func=func)
        return sp

    sp = add("validate", _cmd_validate, help="check the gentle-pair conditions")
    sp.add_argument("file")
    sp.add_argument("--strict", action="store_true",
                    help="also check the at-most-one formulation per arrow end")

    sp = add("threads", _cmd_threads, help="enumerate maximal threads")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=[PERMITTED, FORBIDDEN, "both"], default="both")

    sp = add("koszul", _cmd_koszul, help="emit the Koszul dual presentation")
    sp.add_argument("file")

    sp = add("gldim", _cmd_gldim, help="global dimension")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["threads", "integral", "stieltjes", "all"],
                    default="all")

    sp = add("integrate", _cmd_integrate, help="certified enclosure of an integral")
    sp.add_argument("--fn", required=True, help="integrand expression in t")
    sp.add_argument("--domain", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"))
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--truncate", action="store_true",
                    help="shrink improper endpoints by 1e-8")

    sp = add("stieltjes", _cmd_stieltjes, help="Lebesgue-Stieltjes integral")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--domain", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"))
    sp.add_argument("--log-power", type=float, default=None,
                    help="use the measure l*ln(t) instead of dt")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--truncate", action="store_true")

    sp = add("elemfn", _cmd_elemfn, help="elementary-function enclosures")
    sp.add_argument("--name", choices=sorted(_ELEMFN), required=True)
    sp.add_argument("--at", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)

    sp = add("iposet-add", _cmd_iposet_add,
             help="add two variable-upper-limit elements over a step backing")
    sp.add_argument("--fn", required=True, help="step-function literal")
    sp.add_argument("--first", nargs=2, type=float, required=True,
                    metavar=("U", "V"))
    sp.add_argument("--second", nargs=2, type=float, required=True,
                    metavar=("S", "T"))
    sp.add_argument("--ambient", nargs=2, type=float, default=None,
                    metavar=("LO", "HI"))

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StepQuiverError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
