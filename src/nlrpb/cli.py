"""Command-line interface.

Subcommands
-----------
model         build a model family, report its spectrum and metrics
verify        run verification checks on a JSON document
convert       interconvert system and (h_matrix, theta) representations
paper-tables  print reference tables for the solvable families

Every command prints a report document (JSON unless paper-tables is
given ``--format csv|md``) and exits 0 when all checks pass, 1 on
verification failure, 2 on invalid parameters (or when memory runs
out, or float64 arithmetic overflows or turns invalid), 3 on I/O or
parse errors.  The gates run cheapest first: arguments, the input's
schema and structure, the ``-o`` destination, the numerics, the write.
So an unusable ``-o`` destination exits 3 before any model is built or
matrix factorized, even where the numerics would have exited 2.  The
NLRPB_TOL environment variable sets the default residual tolerance of
``model``, ``verify`` and ``convert``; ``verify --tol`` takes precedence.
``paper-tables`` ignores it: each golden check has its own tolerance.
Positive-definiteness gates always keep tolerance 0.  Checks are sorted
by name inside every section, and file output is written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys as _sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import serialize
from .cryptoherm import crypto_roundtrip, hermitize, hermitized_checks, nlrpb_roundtrip
from .errors import ConvergenceError, SchemaError, ValidationError
from .linalg import jacobi_eigh, symmetric_part_eigenvalues
from .models import _FAMILIES, chebyshev_model, chebyshev_paper_normalization, stored_params_check, two_param_model
from .pseudoboson import LadderPair, build_ladders, build_metrics, build_system, stored_metrics_check, system_checks
from .report import Check

__all__ = ["main"]

ENV_TOL = "NLRPB_TOL"
_DEFAULT_TOL = {"value": None, "source": "default"}


def checks_section(title: str, checks) -> dict:
    ordered = sorted(checks, key=lambda c: c.name)
    passed = all(c.passed for c in ordered)
    return {"title": title, "kind": "checks", "checks": [c.to_dict() for c in ordered], "pass": passed}


def spectrum_section(title: str, values) -> dict:
    return {"title": title, "kind": "spectrum", "values": [float(v) for v in values]}


def matrix_section(title: str, arr) -> dict:
    return {"title": title, "kind": "matrix", "matrix": serialize.matrix_to_dict(arr)}


def scalars_section(title: str, mapping: dict) -> dict:
    return {"title": title, "kind": "scalars", "values": {k: None if v is None else float(v) for k, v in mapping.items()}}


def comparison_section(title: str, reference, computed) -> dict:
    rows = [
        {
            "label": str(i),
            "reference": float(ref),
            "computed": float(got),
            "deviation": abs(float(got) - float(ref)),
        }
        for i, (ref, got) in enumerate(zip(reference, computed))
    ]
    return {"title": title, "kind": "comparison", "rows": rows}


def print_report(command: str, tolerance: dict, sections: list, fmt: str = "json") -> int:
    """Print the report document and return its exit code: 0 if every checks section passes, else 1."""
    doc = {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tolerance": tolerance,
        "sections": sections,
        "pass": all(s["pass"] for s in sections if s["kind"] == "checks"),
    }
    print(render(doc, fmt), end="")
    return 0 if doc["pass"] else 1


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return serialize.dumps(doc) + "\n"
    if fmt == "csv":
        lines = ["section,check,residual,tolerance,pass"]
        for sec in doc["sections"]:
            if sec["kind"] != "checks":
                continue
            for c in sec["checks"]:
                lines.append(
                    f"{sec['title']},{c['name']},{c['residual']:.17g},{c['tolerance']:.17g},"
                    f"{'true' if c['pass'] else 'false'}"
                )
        return "\n".join(lines) + "\n"
    return _render_md(doc)


def _render_md(doc: dict) -> str:
    out = [f"# nlrpb {doc['command']}", ""]
    tol = doc["tolerance"]
    out.append(f"- timestamp: {doc['timestamp']}")
    out.append(f"- tolerance: {tol['value']} (source: {tol['source']})")
    out.append(f"- overall: {'PASS' if doc['pass'] else 'FAIL'}")
    for sec in doc["sections"]:
        out.extend(["", f"## {sec['title']}", ""])
        if sec["kind"] == "checks":
            out.append("| check | residual | tolerance | pass |")
            out.append("| --- | --- | --- | --- |")
            for c in sec["checks"]:
                out.append(
                    f"| {c['name']} | {c['residual']:.6e} | {c['tolerance']:.1e} | "
                    f"{'yes' if c['pass'] else 'NO'} |"
                )
        elif sec["kind"] == "comparison":
            out.append("| label | reference | computed | deviation |")
            out.append("| --- | --- | --- | --- |")
            for row in sec["rows"]:
                out.append(
                    f"| {row['label']} | {row['reference']:.12g} | {row['computed']:.12g} | "
                    f"{row['deviation']:.3e} |"
                )
        elif sec["kind"] == "matrix":
            mat = sec["matrix"]
            out.append("```")
            rows, cols = mat["rows"], mat["cols"]
            for i in range(rows):
                row = mat["data"][i * cols : (i + 1) * cols]
                out.append("  ".join(f"{v: .12g}" for v in row))
            out.append("```")
    out.append("")
    return "\n".join(out)


def resolve_tolerance(args):
    """(metadata, value-or-None) from --tol, then NLRPB_TOL, then defaults."""
    flag = getattr(args, "tol", None)
    env = os.environ.get(ENV_TOL)
    if flag is not None:
        value, source, name, raw = flag, "flag", "--tol", flag
    elif env:
        try:
            value = float(env)
        except ValueError:
            raise ValidationError(f"{ENV_TOL} must be a number, got {env!r}") from None
        source, name, raw = "env", ENV_TOL, env
    else:
        return _DEFAULT_TOL, None
    if not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be a nonnegative finite number, got {raw!r}")
    return {"value": value, "source": source}, value


def _metric_scalars(s_eta) -> dict:
    """Extreme eigenvalues of S_eta and their ratio; the ratio is None (null)
    when lambda_min <= 0 or the ratio is beyond float64."""
    lam_min, lam_max = (float(v) for v in symmetric_part_eigenvalues(s_eta)[0][[0, -1]])
    # Python float division: an overflow gives inf, not an exception
    cond = lam_max / lam_min if lam_min > 0.0 else math.inf
    return scalars_section(
        "frame operator s_eta",
        {"lambda_min": lam_min, "lambda_max": lam_max, "condition_number": cond if math.isfinite(cond) else None},
    )


def _cmd_model(args) -> int:
    meta, tol = resolve_tolerance(args)
    family = args.family
    spec_type, keys = _FAMILIES[family]
    foreign = [key for other, (_, other_keys) in _FAMILIES.items() if other != family for key in other_keys]
    if any(getattr(args, key) is None for key in keys):
        raise ValidationError(f"model {family} requires " + " and ".join(f"--{key}" for key in keys))
    if any(getattr(args, key) is not None for key in foreign):
        verb = "does" if len(foreign) == 1 else "do"
        raise ValidationError("/".join(f"--{key}" for key in foreign) + f" {verb} not apply to the {family} family")
    spec = spec_type(*(getattr(args, key) for key in keys))
    if args.output is not None:
        serialize.check_destination(args.output)
    if family == "chebyshev":
        m, system = chebyshev_model(spec.n)
        ladders = build_ladders(system)
    else:
        a_mat, b_mat, system = two_param_model(spec.beta, spec.delta)
        ladders = LadderPair(a_mat, b_mat)
        m = b_mat @ a_mat

    sections = [
        spectrum_section("spectrum", system.eps),
        _metric_scalars(build_metrics(system).s_eta),
        checks_section("verification", system_checks(system, ladders, m, tol)),
    ]
    if args.output is not None:
        mats = {"m": m, "a": ladders.a, "b": ladders.b}
        serialize.write_document(args.output, serialize.model_artifact_to_dict(family, dataclasses.asdict(spec), system, mats))
    return print_report("model", meta, sections)


def _cmd_verify(args) -> int:
    meta, tol = resolve_tolerance(args)
    doc_in = serialize.load_document(args.path)
    kind = serialize.detect_kind(doc_in)
    if kind == "pair":
        pair = serialize.crypto_from_dict(doc_in)
        checks, hs = hermitized_checks(pair, tol)
        sections = [checks_section("cryptohermiticity", checks)]
        if hs is not None:
            sections.append(spectrum_section("hermitized spectrum (shifted)", hs.spectrum))
            sections.append(scalars_section("hermitized", {"shift": hs.shift}))
        return print_report("verify", meta, sections)
    if kind == "artifact":
        family, params, system, mats = serialize.model_artifact_from_dict(doc_in)
        checks = []
        if "s_phi" in mats:  # format 1; format 2 stores no frame operators
            checks.append(stored_metrics_check(system, mats["s_phi"], mats["s_eta"], tol))
        checks += [
            stored_params_check(family, params, system, tol),
            *system_checks(system, LadderPair(mats["a"], mats["b"]), mats["m"], tol),
        ]
    else:
        system = serialize.system_from_dict(doc_in)
        checks = system_checks(system, tolerance=tol)
    sections = [checks_section("axioms", checks), spectrum_section("spectrum", system.eps)]
    return print_report("verify", meta, sections)


def _cmd_convert(args) -> int:
    meta, tol = resolve_tolerance(args)
    doc_in = serialize.load_document(args.path)
    kind = serialize.detect_kind(doc_in)
    if args.direction == "nlrpb2crypto":
        if kind == "artifact":
            _, _, loose, _ = serialize.model_artifact_from_dict(doc_in)
        elif kind == "system":
            loose = serialize.system_from_dict(doc_in)
        else:
            raise SchemaError("nlrpb2crypto expects a system or model artifact document")
        system = build_system(loose.phi, loose.eta, loose.eps, tol)
        if args.output is not None:
            serialize.check_destination(args.output)
        pair, checks = nlrpb_roundtrip(system, tol)
        out_doc = serialize.crypto_to_dict(pair)
        sections = [
            checks_section("roundtrip", checks),
            matrix_section("h_matrix", pair.h_matrix),
            matrix_section("theta", pair.theta),
        ]
    else:
        if kind != "pair":
            raise SchemaError("crypto2nlrpb expects an (h_matrix, theta) pair document")
        pair = serialize.crypto_from_dict(doc_in)
        if args.output is not None:
            serialize.check_destination(args.output)
        system, shift, checks = crypto_roundtrip(pair, tol)
        out_doc = serialize.system_to_dict(system)
        sections = [
            checks_section("roundtrip", checks),
            spectrum_section("spectrum", system.eps),
            scalars_section("hermitized", {"shift": shift}),
        ]
    if args.output is not None:
        serialize.write_document(args.output, out_doc)
    return print_report("convert", meta, sections)


class _Golden(NamedTuple):
    """A paper-table check ``name``, the largest entrywise |computed - reference|.
    Without a ``title`` only the check is shown; with one, a vector becomes a comparison
    section and a matrix its computed section, after its reference section if titled."""

    name: str
    computed: object
    reference: object
    title: str | None = None
    reference_title: str | None = None
    tolerance: float = 1e-12


def _golden_table(rows) -> list:
    """The golden-values checks section, then the comparison sections, then the matrix sections."""
    checks = [Check(r.name, float(np.abs(np.subtract(r.computed, r.reference)).max()), r.tolerance) for r in rows]
    shown = [r for r in rows if r.title is not None]
    sections = [checks_section("golden values", checks)]
    sections += [comparison_section(r.title, r.reference, r.computed) for r in shown if np.ndim(r.reference) == 1]
    for r in shown:
        if np.ndim(r.reference) == 2:
            if r.reference_title is not None:
                sections.append(matrix_section(r.reference_title, r.reference))
            sections.append(matrix_section(r.title, r.computed))
    return sections


def _tables_n2():
    s2 = math.sqrt(2.0)
    m, system = chebyshev_model(2)
    s_eta = build_metrics(chebyshev_paper_normalization(2)).s_eta
    s_eta_ref = np.array([[0.75, -s2 / 4.0], [-s2 / 4.0, 1.5]])
    lam_ref = [(9.0 - math.sqrt(17.0)) / 8.0, (9.0 + math.sqrt(17.0)) / 8.0]
    return [
        _Golden("m_matrix", m, np.array([[s2, 2.0], [1.0, s2]]), "m computed", "m reference"),
        _Golden("spectrum", system.eps, [0.0, 2.0 * s2], "spectrum"),
        _Golden("s_eta", s_eta, s_eta_ref, "s_eta computed", "s_eta reference"),
        _Golden("metric_eigenvalues", jacobi_eigh(s_eta).eigenvalues, lam_ref, "metric eigenvalues"),
    ]


def _tables_n3():
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    m, system = chebyshev_model(3)
    s_eta = build_metrics(chebyshev_paper_normalization(3)).s_eta
    h_ref = np.array([[s3, s2, 0.0], [s2, s3, 1.0], [0.0, 1.0, s3]])
    return [
        _Golden("spectrum", system.eps, [0.0, s3, 2.0 * s3], "spectrum"),
        _Golden("s_eta", s_eta, np.diag([3.0, 6.0, 6.0]), "s_eta computed", "s_eta reference"),
        _Golden("hermitized_h", hermitize(m, s_eta).h, h_ref, "hermitized h computed", "hermitized h reference"),
    ]


def _tables_n4():
    alpha = np.array([0.0, 2.0 - math.sqrt(2.0), math.sqrt(2.0), 2.0])
    eps_ref = alpha * math.sqrt(2.0 + math.sqrt(2.0))
    return [_Golden("spectrum", chebyshev_model(4)[1].eps, eps_ref, "spectrum")]


def _tables_n5():
    eps_ref = [0.0, 0.726542529, 1.902113032, 3.077683536, 3.804226065]
    return [_Golden("spectrum", chebyshev_model(5)[1].eps, eps_ref, "spectrum", tolerance=1e-8)]


def _tables_two_param():
    a1, b1, sys1 = two_param_model(1.0, -1.0)
    met1 = build_metrics(sys1)
    _, _, sys2 = two_param_model(2.0, -1.0)
    met2 = build_metrics(sys2)
    return [
        _Golden("beta1_delta-1_spectrum", sys1.eps, [0.0, 4.0], "spectrum (beta=1, delta=-1)"),
        _Golden("beta1_delta-1_m", b1 @ a1, [[2.0, -2.0], [-2.0, 2.0]], "m computed (beta=1, delta=-1)"),
        _Golden("beta1_delta-1_s_phi", met1.s_phi, np.eye(2)),
        _Golden("beta2_delta-1_spectrum", sys2.eps, [0.0, 4.5], "spectrum (beta=2, delta=-1)"),
        _Golden("beta2_delta-1_s_phi", met2.s_phi, np.diag([2.0, 1.0]), "s_phi computed (beta=2, delta=-1)"),
        _Golden("beta2_delta-1_s_eta", met2.s_eta, np.diag([0.5, 1.0]), "s_eta computed (beta=2, delta=-1)"),
    ]


_TABLES = {"n2": _tables_n2, "n3": _tables_n3, "n4": _tables_n4, "n5": _tables_n5, "two-param": _tables_two_param}


def _cmd_paper_tables(args) -> int:
    # The golden checks carry their own tolerances, so NLRPB_TOL is not read.
    return print_report(f"paper-tables {args.table}", _DEFAULT_TOL, _golden_table(_TABLES[args.table]()), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrpb",
        description="Biorthogonal ladder systems and hidden-hermiticity pairs: build, verify, convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="build a model family and report on it")
    p_model.add_argument("family", choices=list(_FAMILIES))
    p_model.add_argument("--beta", type=float, default=None, help="two-param: first parameter")
    p_model.add_argument("--delta", type=float, default=None, help="two-param: second parameter")
    p_model.add_argument("--n", type=int, default=None, help="chebyshev: size N >= 2")
    p_model.add_argument("-o", "--output", metavar="PATH", default=None, help="write the model artifact JSON here")
    p_model.set_defaults(func=_cmd_model)

    p_verify = sub.add_parser("verify", help="run verification checks on a JSON document")
    p_verify.add_argument("path", metavar="PATH")
    p_verify.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    p_verify.set_defaults(func=_cmd_verify)

    p_convert = sub.add_parser("convert", help="convert between representations")
    p_convert.add_argument("direction", choices=["nlrpb2crypto", "crypto2nlrpb"])
    p_convert.add_argument("path", metavar="PATH")
    p_convert.add_argument("-o", "--output", metavar="PATH", default=None, help="write the converted JSON here")
    p_convert.set_defaults(func=_cmd_convert)

    p_tables = sub.add_parser("paper-tables", help="print reference tables for the solvable families")
    p_tables.add_argument("table", choices=list(_TABLES))
    p_tables.add_argument("--format", choices=["json", "csv", "md"], default="json")
    p_tables.set_defaults(func=_cmd_paper_tables)

    return parser


# Built once per process: one CLI run pays for it at import either way, and
# repeated in-process calls to main() skip it.  parse_args leaves the parser
# unchanged, and help and error text find sys.stdout/sys.stderr when printed.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=_sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: float64 arithmetic failed: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
