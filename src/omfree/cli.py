"""Command-line surface for the pipeline.

Every run prints either plain text or a JSON document that embeds the fully
resolved configuration, so identical invocations produce identical output
(modulo the tool_version field).  Output goes to stdout or to --output; the
OMFREE_OUTDIR environment variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from . import __version__, certify, freealg
from .classical import hurwitz_class_number, hurwitz_oracle
from .lattice import lattice, norm
from .lifts import gritsenko_lift
from .weil import jacobi_eisenstein, pullback


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        # plain stdout stays terse; the resolved configuration is logged aside
        print("config: " + json.dumps(payload.get("config", {}), sort_keys=True), file=sys.stderr)
        text = plain
    if args.output:
        path = args.output
        outdir = os.environ.get("OMFREE_OUTDIR")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg.update(extra)
    cfg["tool_version"] = __version__
    return cfg


def _cmd_table(args) -> int:
    table = freealg.generator_table(args.system)
    plain = " ".join(f"({k},{m})" for k, m in table)
    _emit(args, {"config": _config(args), "table": [list(t) for t in table]}, plain)
    return 0


def _cmd_weights(args) -> int:
    weights = freealg.orthogonal_weights(args.system)
    _emit(args, {"config": _config(args), "weights": weights}, " ".join(map(str, weights)))
    return 0


def _cmd_hilbert(args) -> int:
    weights = freealg.orthogonal_weights(args.system)
    coeffs = freealg.hilbert_series(weights, args.order)
    plain = " ".join(map(str, coeffs))
    _emit(args, {"config": _config(args), "weights": weights, "coefficients": coeffs}, plain)
    return 0


def _cmd_bound(args) -> int:
    bound = freealg.dim_upper_bound(args.system, args.weight)
    _emit(args, {"config": _config(args), "bound": bound}, str(bound))
    return 0


def _cmd_identity_check(args) -> int:
    equal, where, lhs, rhs = freealg.hilbert_identity_check(args.system, args.order)
    plain = "equal" if equal else f"mismatch at t^{where}: {lhs[where]} vs {rhs[where]}"
    _emit(
        args,
        {"config": _config(args), "equal": equal, "first_mismatch": where},
        plain,
    )
    return 0 if equal else 1


def _parse_vector(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


_VECTOR_TEXT = re.compile(r"\s*-?\d+(?:[\s,]+-?\d+)*\s*")


def _bind_vector_values(argv: List[str]) -> List[str]:
    """Rewrite ``--vector -2,1,...`` as ``--vector=-2,1,...``.

    argparse reads a separate value that starts with '-' and is not a plain
    negative number as an option, so a vector with a negative first entry
    would otherwise be a usage error.
    """
    out: List[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--vector" and i + 1 < len(argv) and _VECTOR_TEXT.fullmatch(argv[i + 1]):
            out.append(f"--vector={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _default_vector(case: str) -> tuple:
    return certify.CASE_VECTORS[case]


def _cmd_eisenstein(args) -> int:
    prec = args.prec
    form = jacobi_eisenstein(args.case, args.weight, args.orbit, prec=prec)
    payload = {
        "config": _config(args),
        "gram": [list(row) for row in form.lattice.gram],
        "form": form.to_json(),
    }
    lines = [f"case {args.case}, weight {args.weight}, orbit {args.orbit}, prec {prec}"]
    for i, comp in enumerate(form.components):
        lines.append(f"component {i}: {comp}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_pullback(args) -> int:
    vec = _parse_vector(args.vector) if args.vector else _default_vector(args.case)
    lat = lattice(args.case)
    q = norm(lat, vec)
    form = jacobi_eisenstein(args.case, args.weight, args.orbit, prec=args.nq + 1)
    phi = pullback(form, vec, nq=args.nq)
    payload = {
        "config": _config(args, vector=list(vec), vector_norm=str(q)),
        "gram": [list(row) for row in lat.gram],
        "jacobi_form": phi.to_json(),
    }
    lines = [f"pullback along {vec} with Q(v) = {q}: weight {phi.weight}, index {phi.index}"]
    for (n, r) in phi.support():
        lines.append(f"c({n},{r}) = {phi.coefficient(n, r)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_lift(args) -> int:
    vec = _parse_vector(args.vector) if args.vector else _default_vector(args.case)
    lat = lattice(args.case)
    q = norm(lat, vec)
    form = jacobi_eisenstein(args.case, args.weight, args.orbit, prec=args.nq * args.nxi + 1)
    lifted = gritsenko_lift(pullback(form, vec, nq=args.nq * args.nxi), args.nxi)
    payload = {
        "config": _config(args, vector=list(vec), vector_norm=str(q)),
        "paramodular_form": lifted.to_json(),
    }
    lines = [
        f"lift along {vec} with Q(v) = {q}: weight {lifted.weight}, level {lifted.level}, "
        f"truncation ({lifted.nq}, {lifted.nxi})"
    ]
    for (n, r, m) in lifted.support():
        lines.append(f"A({n},{r},{m}) = {lifted.coefficient(n, r, m)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_certify(args) -> int:
    schedule = [(args.nq, args.nxi)] if args.nq is not None else list(certify.DEFAULT_SCHEDULE)
    progress = None if args.json or args.output else print
    report = certify.certify_freeness(args.case, args.wmax, schedule, progress=progress)
    cert = report.certificate
    lines = [f"case {args.case}, weights <= {args.wmax}, precision {report.precision}"]
    for rec in report.weights:
        lines.append(
            f"weight {rec['w']}: rank {rec['monomial_rank']} vs bound {rec['upper_bound']}"
            f" -> {'ok' if rec['match'] else 'MISMATCH'}"
        )
    payload = {"config": _config(args), "report": report.to_json()}
    _emit(args, payload, "\n".join(lines))
    if not cert.all_independent():
        return 2
    return 0 if report.consistent() else 1


def _cmd_verify_e14(args) -> int:
    result = certify.verify_weight14(nq=args.nq, nxi=args.nxi)
    plain = [f"precision ({args.nq},{args.nxi}): {result.status}"]
    if result.coefficients:
        plain.append("coefficients: " + " ".join(str(c) for c in result.coefficients))
    plain.append(result.detail)
    _emit(args, {"config": _config(args), "result": result.to_json()}, "\n".join(plain))
    return 0 if result.ok() else 1


def _cmd_hurwitz_check(args) -> int:
    agree = 0
    mismatches = []
    for n in range(1, args.max + 1):
        formula = hurwitz_class_number(n)
        brute = hurwitz_oracle(n)
        if formula == brute:
            agree += 1
        else:
            mismatches.append({"N": n, "formula": str(formula), "oracle": str(brute)})
    plain = f"{agree}/{args.max} agree"
    if mismatches:
        plain += "; first mismatch at N=" + str(mismatches[0]["N"])
    _emit(
        args,
        {"config": _config(args), "agree": agree, "total": args.max, "mismatches": mismatches},
        plain,
    )
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omfree",
        description="Exact computations in free algebras of orthogonal modular forms",
    )
    parser.add_argument("--version", action="version", version=f"omfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
        p.add_argument("--output", help="write output to this path instead of stdout")

    p = sub.add_parser("table", help="generator weight/index table of a root system")
    p.add_argument("system")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("weights", help="orthogonal generator weights of a root system")
    p.add_argument("system")
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("hilbert", help="Hilbert series coefficients of the free algebra")
    p.add_argument("system")
    p.add_argument("--order", type=int, default=24)
    common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("bound", help="upper bound for the dimension at one weight")
    p.add_argument("system")
    p.add_argument("-k", "--weight", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("identity-check", help="Hilbert series vs stacked weak Jacobi dimensions")
    p.add_argument("system")
    p.add_argument("--order", type=int, default=60)
    common(p)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("eisenstein", help="component expansions of a Jacobi Eisenstein series")
    p.add_argument("case", choices=["D8", "E6", "E7"])
    p.add_argument("-k", "--weight", type=int, required=True)
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--prec", type=int, default=8)
    common(p)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser("pullback", help="scalar-index Jacobi form from a lattice vector")
    p.add_argument("case", choices=["D8", "E6", "E7"])
    p.add_argument("-k", "--weight", type=int, required=True)
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--vector", help="lattice vector, comma or space separated")
    p.add_argument("--nq", type=int, default=6)
    common(p)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("lift", help="paramodular expansion of an additive lift")
    p.add_argument("case", choices=["D8", "E6", "E7"])
    p.add_argument("-k", "--weight", type=int, required=True)
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--vector", help="lattice vector, comma or space separated")
    p.add_argument("--nq", type=int, default=3)
    p.add_argument("--nxi", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("certify", help="independence certificate against dimension bounds")
    p.add_argument("case", choices=["D8", "E6", "E7"])
    p.add_argument("--wmax", type=int, default=14)
    p.add_argument("--nq", type=int, help="fixed precision (with --nxi) instead of the schedule")
    p.add_argument("--nxi", type=int)
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify-e14", help="reproduce the exact weight-14 relation coefficients")
    p.add_argument("--nq", type=int, default=5)
    p.add_argument("--nxi", type=int, default=5)
    common(p)
    p.set_defaults(func=_cmd_verify_e14)

    p = sub.add_parser("hurwitz-check", help="class number formula against brute-force counts")
    p.add_argument("--max", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_hurwitz_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_vector_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "certify":
        if (args.nq is None) != (args.nxi is None):
            parser.error("--nq requires --nxi" if args.nxi is None else "--nxi requires --nq")
        for flag, value in (("--nq", args.nq), ("--nxi", args.nxi)):
            if value is not None and value < 1:
                parser.error(f"{flag} must be at least 1, got {value}")
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
