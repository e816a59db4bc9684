"""Command-line entry point.

``icis run FILE [--json] [--seed N] [--samples a/b,c/d] [--budget N]``
computes the problem described in FILE and prints a deterministic
report; ``icis check FILE`` only parses and validates.

Exit codes: 0 computed (including VACUOUS verdicts), 2 some printed
verdict is INCONCLUSIVE, 3 input error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from math import inf

from . import families as fam_mod
from .basis import step_budget
from .errors import AnswerTooLongError, BudgetExhaustedError, IcisError, ProblemFileError
from .families import (
    CurveProbe,
    DeformationFamily,
    conservation_check,
    zero_fiber_forces_origin_check,
    greuel_conditions,
    splitting_check,
    radical_implies_axis_check,
)
from .germs import (
    GermFunction,
    IcisPresentation,
    LineDirection,
    discriminant,
    function_on_icis_milnor,
    hypersurface_milnor,
    icis_milnor,
    is_generic_line,
    line_intersection_number,
    multiplicity,
)
from .poly import format_poly
from .problem import parse_problem, parse_samples

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if value is inf:
        return "inf"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    return str(value)  # ints as exact decimal strings, no float anywhere


def run_problem(problem):
    """Dispatch a validated problem; returns (lines, json_dict, exit_code)."""
    kind = problem.kind
    lines = [f"kind: {kind}", f"ring: {', '.join(problem.ring)}"]
    data = {"kind": kind, "ring": list(problem.ring), "seed": problem.seed}
    if problem.param:
        lines.append(f"param: {problem.param}")
        data["param"] = problem.param
    for name, polys in sorted(problem.bindings.items()):
        shown = [format_poly(p) for p in polys]
        lines.append(f"{name}: {', '.join(shown)}")
        data.setdefault("bindings", {})[name] = shown

    code = EXIT_OK

    if kind == "milnor":
        f = problem.bindings["f"][0]
        mu = hypersurface_milnor(f)
        lines.append(f"mu: {mu}  [local colength of the partial-derivative ideal]")
        data["mu"] = mu

    elif kind == "icis-milnor":
        X = IcisPresentation(problem.ring, problem.bindings["phi"])
        mu = icis_milnor(X, seed=problem.seed)
        lines.append(f"mu: {mu}  [telescoped colength chain, seed {problem.seed}]")
        data["mu"] = mu

    elif kind == "function-milnor":
        X = IcisPresentation(problem.ring, problem.bindings["phi"])
        g = GermFunction(problem.bindings["f"][0], X)
        mu = function_on_icis_milnor(g)
        lines.append(f"mu: {mu}  [local colength of <phi> + J(f, phi)]")
        data["mu"] = mu

    elif kind == "discriminant":
        d = format_poly(discriminant(problem.bindings["phi"]))
        lines.append(f"discriminant: {d}  [reduced eliminant of the "
                     "graph-plus-critical ideal]")
        data["discriminant"] = d

    elif kind == "generic-line":
        delta = problem.bindings["delta"][0]
        L = LineDirection(problem.direction)
        m = multiplicity(delta)
        i = line_intersection_number(delta, L)
        generic = is_generic_line(delta, L)
        lines.append(f"multiplicity: {m}")
        lines.append(f"intersection_number: {i}")
        lines.append(f"generic: {generic}")
        data.update({"multiplicity": m, "intersection_number": i, "generic": generic})

    elif kind == "family-analyze":
        code = _run_family_analyze(problem, lines, data)

    elif kind == "greuel-check":
        if _run_greuel(_family(problem), problem, lines, data):
            code = EXIT_INCONCLUSIVE

    return lines, data, code


def _family(problem):
    phi = problem.bindings["phi"]
    if "F" in problem.bindings:
        return DeformationFamily.function_deformation(
            problem.ring, problem.param, phi, problem.bindings["F"][0], problem.samples
        )
    return DeformationFamily.space_deformation(problem.ring, problem.param, phi, problem.samples)


def _run_family_analyze(problem, lines, data):
    fam = _family(problem)
    code = EXIT_OK
    data["samples"] = [str(s) for s in fam.samples]

    if fam.kind == fam_mod.FUNCTION:
        lines.append(f"mu_f_at_0: {fam.mu0}  [local colength of <phi> + J(f, phi)]")
        data["mu_f_at_0"] = fam.mu0
        sample_data = []
        for r in fam.reports:
            lines.append(
                f"sample t={r.t0}: mu_origin={r.local_mu_origin} "
                f"total={r.total_colength} off_origin={r.off_origin_budget} "
                f"distinct_points={r.distinct_points} "
                f"converges_to_origin={fam.certificate}"
            )
            sample_data.append({
                "t0": str(r.t0),
                "mu_origin": r.local_mu_origin,
                "total_colength": r.total_colength,
                "off_origin_budget": r.off_origin_budget,
                "distinct_points": r.distinct_points,
                "converges_to_origin": fam.certificate,
            })
        data["samples_report"] = sample_data
        cons = conservation_check(fam)
        if cons == fam_mod.INCONCLUSIVE:
            lines.append("conservation: INCONCLUSIVE  [no convergence certificate]")
            data["conservation"] = None
            code = EXIT_INCONCLUSIVE
        else:
            lines.append(f"conservation: {cons}  [total at each sample vs mu at t=0]")
            data["conservation"] = cons
        if _run_greuel(fam, problem, lines, data):
            code = EXIT_INCONCLUSIVE

    split = splitting_check(fam)
    lines.append(
        f"splitting: {split.verdict}  [base fiber mu {split.base_fiber_mu}; "
        + "; ".join(
            f"t={s.t0}: count={s.singular_count} total={s.total_fiber_mu}"
            for s in split.samples
        )
        + f"] {split.reason}"
    )
    data["splitting"] = {
        "verdict": split.verdict,
        "base_fiber_mu": split.base_fiber_mu,
        "converges_to_origin": split.converges_to_origin,
        "samples": [
            {
                "t0": str(s.t0),
                "count": s.singular_count,
                "total_fiber_mu": _jsonable(s.total_fiber_mu),
                "point_mu": _jsonable(s.point_mu),
            }
            for s in split.samples
        ],
        "reason": split.reason,
    }
    if split.verdict == fam_mod.INCONCLUSIVE:
        code = EXIT_INCONCLUSIVE
    return code


def _run_greuel(fam, problem, lines, data):
    """Condition flags, probe evidence and the two theorem checks: the
    whole greuel-check report and the function part of family-analyze.
    Returns whether a printed verdict is INCONCLUSIVE."""
    t44, t44d = radical_implies_axis_check(fam)
    implications_ok = t44 == fam_mod.VERIFIED
    probes = greuel_conditions(fam, probes=[CurveProbe(c) for c in problem.probes])
    mu_samples = {r.t0: r.local_mu_origin for r in fam.reports}
    lines.append(f"cond1_mu_constant: {fam.cond1}  "
                 f"[mu at origin {fam.mu0} vs samples "
                 f"{{{', '.join(f'{k}: {v}' for k, v in sorted(mu_samples.items()))}}}]")
    lines.append(f"cond5_radical: {fam.cond5}  [dF/dt in rad(<phi> + J)]")
    lines.append(f"cond6_variety: {fam.cond6}  [v(<phi> + J) equals the "
                 "parameter axis]")
    lines.append(f"implications_ok: {implications_ok}  [not (cond5 and not cond6)]")
    for i, pr in enumerate(probes):
        lines.append(
            f"probe[{i}]: nu(dF/dt.gamma)={pr.numerator_order} "
            f"min nu(g_i.gamma)={pr.denominator_order} strict={pr.strict} "
            f"weak={pr.weak} on_variety={pr.on_variety}"
        )
    data["greuel"] = {
        "cond1_mu_constant": fam.cond1,
        "cond5_radical": fam.cond5,
        "cond6_variety": fam.cond6,
        "implications_ok": implications_ok,
        "mu_origin_base": fam.mu0,
        "mu_origin_samples": {str(k): v for k, v in mu_samples.items()},
        "totals": {str(r.t0): _jsonable(r.total_colength) for r in fam.reports},
        "probes": [
            {
                "nu_numerator": _jsonable(pr.numerator_order),
                "nu_denominator": _jsonable(pr.denominator_order),
                "strict": pr.strict,
                "weak": pr.weak,
                "on_variety": pr.on_variety,
            }
            for pr in probes
        ],
    }
    lines.append(f"radical_implies_axis: {t44}")
    data["radical_implies_axis"] = {"verdict": t44, **_jsonable(t44d)}
    c41, c41d = zero_fiber_forces_origin_check(fam)
    lines.append(f"zero_fiber_forces_origin: {c41}")
    data["zero_fiber_forces_origin"] = {"verdict": c41, "details": _jsonable(c41d)}
    return fam_mod.INCONCLUSIVE in (t44, c41)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, not argparse's 2, which
    means inconclusive here."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error[usage]: {message}\n")


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call of the
    process and reused by every later one."""
    parser = _ArgumentParser(
        prog="icis",
        description="Exact singularity invariants and deformation-family checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="compute the problem in FILE")
    run_p.add_argument("file")
    run_p.add_argument("--json", action="store_true", dest="emit_json")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--samples", default=None,
                       help="comma-separated nonzero rationals, e.g. 1,1/2")
    run_p.add_argument("--budget", type=int, default=None)
    check_p = sub.add_parser("check", help="parse and validate FILE only")
    check_p.add_argument("file")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.budget is not None and args.budget < 0:
        parser.error("--budget must be non-negative")

    try:
        with open(args.file, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        problem = parse_problem(text)
        if args.command == "run" and args.samples is not None:
            problem.samples = parse_samples(args.samples)
    except ProblemFileError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "check":
        print(f"ok: kind {problem.kind}, ring {', '.join(problem.ring)}")
        return EXIT_OK

    if args.seed is not None:
        problem.seed = args.seed
    if args.budget is not None:
        problem.budget = args.budget

    started = time.monotonic()
    try:
        with step_budget(problem.budget) as budget:
            lines, data, code = run_problem(problem)
        elapsed = time.monotonic() - started
        if args.emit_json:
            lines.append(json.dumps(_jsonable(data), sort_keys=True))
    except BudgetExhaustedError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IcisError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # the report writes an answer as text, and an int with more digits
        # than sys.get_int_max_str_digits() has none
        if "integer string conversion" not in str(exc):
            raise
        print(f"error[{AnswerTooLongError.code}]: the answer has a number of more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return EXIT_INPUT

    for line in lines:
        print(line)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    print(f"steps: {budget.spent}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
