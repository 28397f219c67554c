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
out), 3 on I/O or parse errors.  The NLRPB_TOL environment variable
sets the default residual tolerance; ``verify --tol`` takes
precedence.  Positive-definiteness gates always keep tolerance 0.
Checks are sorted by name inside every section, and file output is
written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import serialize
from .cryptoherm import from_crypto, from_nlrpb, hermitize, hermitized_checks
from .errors import ConvergenceError, SchemaError, ValidationError
from .linalg import _TINY, jacobi_eigh, residual_norm
from .models import ChebyshevSpec, TwoParamSpec, chebyshev_model, chebyshev_paper_normalization, two_param_model
from .pseudoboson import (
    LadderPair,
    biorthonormality_check,
    build_ladders,
    build_metrics,
    build_system,
    commutator_check,
    eigen_check,
    eps_structure_check,
    verify_axioms,
)
from .report import Check, VerificationReport

__all__ = ["main"]

ENV_TOL = "NLRPB_TOL"


@dataclass
class Section:
    title: str
    kind: str  # checks | spectrum | matrix | scalars | comparison
    payload: dict

    def to_dict(self) -> dict:
        out = {"title": self.title, "kind": self.kind}
        out.update(self.payload)
        return out


@dataclass
class ReportDocument:
    command: str
    tolerance: dict
    sections: list
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    @property
    def passed(self) -> bool:
        return all(s.payload["pass"] for s in self.sections if s.kind == "checks")

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "timestamp": self.timestamp,
            "tolerance": self.tolerance,
            "sections": [s.to_dict() for s in self.sections],
            "pass": self.passed,
        }


def checks_section(title: str, checks) -> Section:
    ordered = tuple(sorted(checks, key=lambda c: c.name))
    rep = VerificationReport(ordered)
    return Section(title, "checks", {"checks": [c.to_dict() for c in ordered], "pass": rep.passed})


def spectrum_section(title: str, values) -> Section:
    return Section(title, "spectrum", {"values": [float(v) for v in values]})


def matrix_section(title: str, arr) -> Section:
    return Section(title, "matrix", {"matrix": serialize.matrix_to_dict(arr)})


def scalars_section(title: str, mapping: dict) -> Section:
    return Section(title, "scalars", {"values": {k: float(v) for k, v in mapping.items()}})


def comparison_section(title: str, labels, reference, computed) -> Section:
    rows = [
        {
            "label": str(lab),
            "reference": float(ref),
            "computed": float(got),
            "deviation": abs(float(got) - float(ref)),
        }
        for lab, ref, got in zip(labels, reference, computed)
    ]
    return Section(title, "comparison", {"rows": rows})


def render(doc: ReportDocument, fmt: str) -> str:
    if fmt == "json":
        return serialize.dumps(doc.to_dict()) + "\n"
    if fmt == "csv":
        lines = ["section,check,residual,tolerance,pass"]
        for sec in doc.sections:
            if sec.kind != "checks":
                continue
            for c in sec.payload["checks"]:
                lines.append(
                    f"{sec.title},{c['name']},{c['residual']:.17g},{c['tolerance']:.17g},"
                    f"{'true' if c['pass'] else 'false'}"
                )
        return "\n".join(lines) + "\n"
    if fmt == "md":
        return _render_md(doc)
    raise ValidationError(f"unknown format {fmt!r}")


def _render_md(doc: ReportDocument) -> str:
    out = [f"# nlrpb {doc.command}", ""]
    tol = doc.tolerance
    out.append(f"- timestamp: {doc.timestamp}")
    out.append(f"- tolerance: {tol['value']} (source: {tol['source']})")
    out.append(f"- overall: {'PASS' if doc.passed else 'FAIL'}")
    for sec in doc.sections:
        out.extend(["", f"## {sec.title}", ""])
        if sec.kind == "checks":
            out.append("| check | residual | tolerance | pass |")
            out.append("| --- | --- | --- | --- |")
            for c in sec.payload["checks"]:
                out.append(
                    f"| {c['name']} | {c['residual']:.6e} | {c['tolerance']:.1e} | "
                    f"{'yes' if c['pass'] else 'NO'} |"
                )
        elif sec.kind == "comparison":
            out.append("| label | reference | computed | deviation |")
            out.append("| --- | --- | --- | --- |")
            for row in sec.payload["rows"]:
                out.append(
                    f"| {row['label']} | {row['reference']:.12g} | {row['computed']:.12g} | "
                    f"{row['deviation']:.3e} |"
                )
        elif sec.kind == "spectrum":
            out.append("| level | value |")
            out.append("| --- | --- |")
            for i, v in enumerate(sec.payload["values"]):
                out.append(f"| {i} | {v:.12g} |")
        elif sec.kind == "scalars":
            for key, val in sec.payload["values"].items():
                out.append(f"- {key}: {val:.12g}")
        elif sec.kind == "matrix":
            mat = sec.payload["matrix"]
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
    if flag is not None:
        value = float(flag)
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(f"--tol must be a nonnegative finite number, got {flag!r}")
        return {"value": value, "source": "flag"}, value
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValidationError(f"{ENV_TOL} must be a number, got {env!r}") from None
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(f"{ENV_TOL} must be nonnegative and finite, got {env!r}")
        return {"value": value, "source": "env"}, value
    return {"value": None, "source": "default"}, None


def _metric_scalars(system) -> Section:
    lam = jacobi_eigh(build_metrics(system).s_eta).eigenvalues
    lam_min = float(lam[0])
    lam_max = float(lam[-1])
    return scalars_section(
        "frame operator s_eta",
        {
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "condition_number": lam_max / max(lam_min, _TINY),
        },
    )


def _cmd_model(args) -> int:
    meta, tol = resolve_tolerance(args)
    family = args.family
    if family == "chebyshev":
        if args.n is None:
            raise ValidationError("model chebyshev requires --n")
        if args.beta is not None or args.delta is not None:
            raise ValidationError("--beta/--delta do not apply to the chebyshev family")
        spec = ChebyshevSpec(args.n)
        m, system = chebyshev_model(spec.n)
        ladders = build_ladders(system)
        params = {"n": spec.n, "z": spec.z}
    else:
        if args.beta is None or args.delta is None:
            raise ValidationError("model two-param requires --beta and --delta")
        if args.n is not None:
            raise ValidationError("--n does not apply to the two-param family")
        spec = TwoParamSpec(args.beta, args.delta)
        a_mat, b_mat, system = two_param_model(spec.beta, spec.delta, spec.y, spec.w)
        ladders = LadderPair(a_mat, b_mat)
        m = b_mat @ a_mat
        params = {"beta": spec.beta, "delta": spec.delta, "y": spec.y, "w": spec.w}

    metrics = build_metrics(system)
    checks = list(verify_axioms(system, ladders, tol).checks)
    checks.append(commutator_check(system, ladders, tol))
    checks.append(eigen_check(system, m, tol))
    sections = [
        spectrum_section("spectrum", system.eps),
        _metric_scalars(system),
        checks_section("verification", checks),
    ]
    doc = ReportDocument("model", meta, sections)
    if args.output:
        artifact = serialize.model_artifact_to_dict(
            family,
            params,
            system,
            {"m": m, "a": ladders.a, "b": ladders.b, "s_phi": metrics.s_phi, "s_eta": metrics.s_eta},
        )
        serialize.write_document(args.output, artifact)
    print(render(doc, "json"), end="")
    return 0 if doc.passed else 1


def _cmd_verify(args) -> int:
    meta, tol = resolve_tolerance(args)
    doc_in = serialize.load_document(args.path)
    kind = serialize.detect_kind(doc_in)
    if kind == "pair":
        pair = serialize.crypto_from_dict(doc_in)
        checks, hs = hermitized_checks(pair.h_matrix, pair.theta, tol)
        sections = [checks_section("cryptohermiticity", checks)]
        if hs is not None:
            sections.append(spectrum_section("hermitized spectrum (shifted)", hs.spectrum))
            sections.append(scalars_section("hermitized", {"shift": hs.shift}))
    else:
        if kind == "artifact":
            _, _, system, mats = serialize.model_artifact_from_dict(doc_in)
            ladders = LadderPair(mats["a"], mats["b"])
            m = mats["m"]
        else:
            system = serialize.system_from_dict(doc_in)
            ladders = None
            m = None
        checks = [eps_structure_check(system)]
        if checks[0].passed:
            if ladders is None:
                # no stored operators: reconstruct the ladders from the data
                ladders = build_ladders(system)
            checks.extend(verify_axioms(system, ladders, tol).checks)
            checks.append(commutator_check(system, ladders, tol))
            if m is not None:
                checks.append(eigen_check(system, m, tol))
        else:
            # sqrt(eps) would be meaningless; only data-level checks remain
            checks.append(biorthonormality_check(system, tol))
        sections = [checks_section("axioms", checks), spectrum_section("spectrum", system.eps)]
    doc = ReportDocument("verify", meta, sections)
    print(render(doc, "json"), end="")
    return 0 if doc.passed else 1


def _line_cosine_defect(sys_a, sys_b) -> float:
    worst = 0.0
    for rows_a, rows_b in ((sys_a.phi, sys_b.phi), (sys_a.eta, sys_b.eta)):
        dots = np.abs(np.sum(rows_a * rows_b, axis=1))
        norms = np.linalg.norm(rows_a, axis=1) * np.linalg.norm(rows_b, axis=1)
        worst = max(worst, float((1.0 - dots / np.maximum(norms, _TINY)).max()))
    return worst


def _cmd_convert(args) -> int:
    meta, tol = resolve_tolerance(args)
    doc_in = serialize.load_document(args.path)
    kind = serialize.detect_kind(doc_in)
    rt_tol = 1e-9 if tol is None else tol
    if args.direction == "nlrpb2crypto":
        if kind == "artifact":
            _, _, loose, _ = serialize.model_artifact_from_dict(doc_in)
        elif kind == "system":
            loose = serialize.system_from_dict(doc_in)
        else:
            raise SchemaError("nlrpb2crypto expects a system or model artifact document")
        system = build_system(loose.phi, loose.eta, loose.eps, tol)
        pair = from_nlrpb(system)
        rt_sys, _ = from_crypto(pair.h_matrix, pair.theta, tol)
        checks = [
            Check.from_residual("eps_roundtrip", float(np.abs(rt_sys.eps - system.eps).max()), rt_tol),
            Check.from_residual("eigenline_cosines", _line_cosine_defect(system, rt_sys), rt_tol),
        ]
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
        system, _ = from_crypto(pair.h_matrix, pair.theta, tol)
        hs = hermitize(pair.h_matrix, pair.theta, tol)
        back = from_nlrpb(system)
        shift_removed = pair.h_matrix - hs.shift * np.eye(system.n)
        checks = [
            Check.from_residual(
                "h_roundtrip",
                residual_norm(back.h_matrix, shift_removed) / max(float(np.linalg.norm(pair.h_matrix)), 1.0),
                rt_tol,
            ),
            Check.from_residual(
                "theta_roundtrip",
                residual_norm(back.theta, pair.theta) / max(float(np.linalg.norm(pair.theta)), _TINY),
                rt_tol,
            ),
        ]
        out_doc = serialize.system_to_dict(system)
        sections = [
            checks_section("roundtrip", checks),
            spectrum_section("spectrum", system.eps),
            scalars_section("hermitized", {"shift": hs.shift}),
        ]
    doc = ReportDocument("convert", meta, sections)
    if args.output:
        serialize.write_document(args.output, out_doc)
    print(render(doc, "json"), end="")
    return 0 if doc.passed else 1


def _tables_n2():
    s2 = math.sqrt(2.0)
    m, system = chebyshev_model(2)
    m_ref = np.array([[s2, 2.0], [1.0, s2]])
    eps_ref = [0.0, 2.0 * s2]
    ref_sys = chebyshev_paper_normalization(2)
    s_eta = build_metrics(ref_sys).s_eta
    s_eta_ref = np.array([[0.75, -s2 / 4.0], [-s2 / 4.0, 1.5]])
    lam = jacobi_eigh(s_eta).eigenvalues
    lam_ref = [(9.0 - math.sqrt(17.0)) / 8.0, (9.0 + math.sqrt(17.0)) / 8.0]
    checks = [
        Check.from_residual("m_matrix", float(np.abs(m - m_ref).max()), 1e-12),
        Check.from_residual("spectrum", float(np.abs(system.eps - eps_ref).max()), 1e-12),
        Check.from_residual("s_eta", float(np.abs(s_eta - s_eta_ref).max()), 1e-12),
        Check.from_residual("metric_eigenvalues", float(np.abs(lam - lam_ref).max()), 1e-12),
    ]
    return [
        checks_section("golden values", checks),
        comparison_section("spectrum", range(2), eps_ref, system.eps),
        comparison_section("metric eigenvalues", range(2), lam_ref, lam),
        matrix_section("m reference", m_ref),
        matrix_section("m computed", m),
        matrix_section("s_eta reference", s_eta_ref),
        matrix_section("s_eta computed", s_eta),
    ]


def _tables_n3():
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    m, system = chebyshev_model(3)
    eps_ref = [0.0, s3, 2.0 * s3]
    ref_sys = chebyshev_paper_normalization(3)
    s_eta = build_metrics(ref_sys).s_eta
    s_eta_ref = np.diag([3.0, 6.0, 6.0])
    h_ref = np.array([[s3, s2, 0.0], [s2, s3, 1.0], [0.0, 1.0, s3]])
    hs = hermitize(m, s_eta)
    checks = [
        Check.from_residual("spectrum", float(np.abs(system.eps - eps_ref).max()), 1e-12),
        Check.from_residual("s_eta", float(np.abs(s_eta - s_eta_ref).max()), 1e-12),
        Check.from_residual("hermitized_h", float(np.abs(hs.h - h_ref).max()), 1e-12),
    ]
    return [
        checks_section("golden values", checks),
        comparison_section("spectrum", range(3), eps_ref, system.eps),
        matrix_section("s_eta reference", s_eta_ref),
        matrix_section("s_eta computed", s_eta),
        matrix_section("hermitized h reference", h_ref),
        matrix_section("hermitized h computed", hs.h),
    ]


def _tables_n4():
    s = math.sqrt(2.0 + math.sqrt(2.0))
    _, system = chebyshev_model(4)
    alpha = np.array([0.0, 2.0 - math.sqrt(2.0), math.sqrt(2.0), 2.0])
    eps_ref = alpha * s
    checks = [Check.from_residual("spectrum", float(np.abs(system.eps - eps_ref).max()), 1e-12)]
    return [
        checks_section("golden values", checks),
        comparison_section("spectrum", range(4), eps_ref, system.eps),
    ]


def _tables_n5():
    _, system = chebyshev_model(5)
    eps_ref = [0.0, 0.726542529, 1.902113032, 3.077683536, 3.804226065]
    checks = [Check.from_residual("spectrum", float(np.abs(system.eps - eps_ref).max()), 1e-8)]
    return [
        checks_section("golden values", checks),
        comparison_section("spectrum", range(5), eps_ref, system.eps),
    ]


def _tables_two_param():
    a1, b1, sys1 = two_param_model(1.0, -1.0)
    met1 = build_metrics(sys1)
    m1 = b1 @ a1
    a2, b2, sys2 = two_param_model(2.0, -1.0)
    met2 = build_metrics(sys2)
    checks = [
        Check.from_residual("beta1_delta-1_spectrum", float(np.abs(sys1.eps - [0.0, 4.0]).max()), 1e-12),
        Check.from_residual(
            "beta1_delta-1_m", float(np.abs(m1 - np.array([[2.0, -2.0], [-2.0, 2.0]])).max()), 1e-12
        ),
        Check.from_residual("beta1_delta-1_s_phi", float(np.abs(met1.s_phi - np.eye(2)).max()), 1e-12),
        Check.from_residual("beta2_delta-1_spectrum", float(np.abs(sys2.eps - [0.0, 4.5]).max()), 1e-12),
        Check.from_residual(
            "beta2_delta-1_s_phi", float(np.abs(met2.s_phi - np.diag([2.0, 1.0])).max()), 1e-12
        ),
        Check.from_residual(
            "beta2_delta-1_s_eta", float(np.abs(met2.s_eta - np.diag([0.5, 1.0])).max()), 1e-12
        ),
    ]
    return [
        checks_section("golden values", checks),
        comparison_section("spectrum (beta=1, delta=-1)", range(2), [0.0, 4.0], sys1.eps),
        comparison_section("spectrum (beta=2, delta=-1)", range(2), [0.0, 4.5], sys2.eps),
        matrix_section("m computed (beta=1, delta=-1)", m1),
        matrix_section("s_phi computed (beta=2, delta=-1)", met2.s_phi),
        matrix_section("s_eta computed (beta=2, delta=-1)", met2.s_eta),
    ]


_TABLES = {
    "n2": _tables_n2,
    "n3": _tables_n3,
    "n4": _tables_n4,
    "n5": _tables_n5,
    "two-param": _tables_two_param,
}


def _cmd_paper_tables(args) -> int:
    meta, _ = resolve_tolerance(args)
    sections = _TABLES[args.table]()
    doc = ReportDocument(f"paper-tables {args.table}", meta, sections)
    print(render(doc, args.format), end="")
    return 0 if doc.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrpb",
        description="Biorthogonal ladder systems and hidden-hermiticity pairs: build, verify, convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="build a model family and report on it")
    p_model.add_argument("family", choices=["chebyshev", "two-param"])
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
    p_tables.add_argument("table", choices=["n2", "n3", "n4", "n5", "two-param"])
    p_tables.add_argument("--format", choices=["json", "csv", "md"], default="json")
    p_tables.set_defaults(func=_cmd_paper_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
