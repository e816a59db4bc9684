"""Command-line entry point.

``icis run FILE [--json] [--seed N] [--samples a/b,c/d] [--budget N]``
computes the problem described in FILE and prints a deterministic
report; ``icis check FILE`` only parses and validates.  ``--samples``
on a kind that reads no samples (``problem.reads``) is a usage error, as
a ``samples`` statement in its file is a syntax error.  ``-h`` or
``--help`` anywhere prints ``USAGE``, the command-line grammar, which
``read_argv`` reads without argparse: its import and parser build cost a
one-shot run more than a small problem's mathematics.  Option names are
matched whole, and a repeated option keeps its last value.

A run builds one report record, each value once as a Python object; the
text report is rendered from it, and ``--json`` appends the record
itself as one JSON line.

Exit codes: 0 computed (including VACUOUS verdicts), 2 some verdict of
the record is INCONCLUSIVE, 3 input error (a usage error, an unreadable
FILE and an answer too long to print included), 4 budget exhausted.
``main`` decides a failed run's ``error[...]`` line and exit code in one
place, its one handler of ``OSError`` and ``IcisError``.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from math import inf

from . import families as fam_mod
from .basis import step_budget
from .errors import AnswerTooLongError, BudgetExhaustedError, IcisError, UsageError
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
    line_intersection_number,
    multiplicity,
)
from .poly import format_poly
from .problem import parse_problem, parse_samples, reads

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

# the record entries that carry a theorem check's verdict
CHECKS = ("radical_implies_axis", "zero_fiber_forces_origin", "splitting")

# the bracketed note after a Milnor number, by kind
MU_NOTES = {
    "milnor": "local colength of the partial-derivative ideal",
    "icis-milnor": "telescoped colength chain, seed {seed}",
    "function-milnor": "local colength of <phi> + J(f, phi)",
}


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
    """Dispatch a validated problem; returns (lines, record, exit_code):
    the report record, its text lines and the exit code its verdicts
    give."""
    record = {"kind": problem.kind, "ring": list(problem.ring), "seed": problem.seed}
    if problem.param:
        record["param"] = problem.param
    record["bindings"] = {name: [format_poly(p) for p in polys]
                          for name, polys in sorted(problem.bindings.items())}

    kind, bound = problem.kind, problem.bindings
    if kind == "milnor":
        record["mu"] = hypersurface_milnor(bound["f"][0])
    elif kind == "icis-milnor":
        record["mu"] = icis_milnor(IcisPresentation(problem.ring, bound["phi"]),
                                   seed=problem.seed)
    elif kind == "function-milnor":
        X = IcisPresentation(problem.ring, bound["phi"])
        record["mu"] = function_on_icis_milnor(GermFunction(bound["f"][0], X))
    elif kind == "discriminant":
        record["discriminant"] = format_poly(discriminant(bound["phi"]))
    elif kind == "generic-line":
        delta, L = bound["delta"][0], LineDirection(problem.direction)
        record["multiplicity"] = multiplicity(delta)
        record["intersection_number"] = line_intersection_number(delta, L)
        record["generic"] = record["intersection_number"] == record["multiplicity"]
    elif kind == "family-analyze":
        _family_analyze(_family(problem), problem, record)
    elif kind == "greuel-check":
        _greuel(_family(problem), problem, record)

    return _render(record), record, _exit_code(record)


def _family(problem):
    phi = problem.bindings["phi"]
    if "F" in problem.bindings:
        return DeformationFamily.function_deformation(
            problem.ring, problem.param, phi, problem.bindings["F"][0], problem.samples
        )
    return DeformationFamily.space_deformation(problem.ring, problem.param, phi, problem.samples)


def _family_analyze(fam, problem, record):
    """The family-analyze entries: the samples and, for a function family,
    the sample reports, conservation and the Greuel entries, then
    splitting."""
    record["samples"] = list(fam.samples)
    if fam.kind == fam_mod.FUNCTION:
        record["mu_f_at_0"] = fam.mu0
        record["samples_report"] = [
            {"t0": r.t0, "mu_origin": r.local_mu_origin, "total_colength": r.total_colength,
             "off_origin_budget": r.off_origin_budget, "distinct_points": r.distinct_points,
             "converges_to_origin": fam.certificate}
            for r in fam.reports
        ]
        cons = conservation_check(fam)
        record["conservation"] = None if cons == fam_mod.INCONCLUSIVE else cons
        _greuel(fam, problem, record)

    split = splitting_check(fam)
    record["splitting"] = {
        "verdict": split.verdict,
        "base_fiber_mu": split.base_fiber_mu,
        "converges_to_origin": split.converges_to_origin,
        "samples": [{"t0": s.t0, "count": s.singular_count,
                     "total_fiber_mu": s.total_fiber_mu, "point_mu": s.point_mu}
                    for s in split.samples],
        "reason": split.reason,
    }


def _greuel(fam, problem, record):
    """Condition flags, probe evidence and the two theorem checks: the
    whole greuel-check report and the function part of family-analyze."""
    t44, t44d = radical_implies_axis_check(fam)
    probes = greuel_conditions(fam, probes=[CurveProbe(c) for c in problem.probes])
    # computed in this order, which the stderr step counts pin: cond1 may
    # compute mu0 and cond6 may be computed here first
    record["greuel"] = {
        "mu_origin_samples": {r.t0: r.local_mu_origin for r in fam.reports},
        "cond1_mu_constant": fam.cond1,
        "mu_origin_base": fam.mu0,
        "cond5_radical": fam.cond5,
        "cond6_variety": fam.cond6,
        "implications_ok": t44 == fam_mod.VERIFIED,
        "totals": {r.t0: r.total_colength for r in fam.reports},
        "probes": [{"nu_numerator": pr.numerator_order, "nu_denominator": pr.denominator_order,
                    "strict": pr.strict, "weak": pr.weak, "on_variety": pr.on_variety}
                   for pr in probes],
    }
    record["radical_implies_axis"] = {"verdict": t44, **t44d}
    c41, c41d = zero_fiber_forces_origin_check(fam)
    record["zero_fiber_forces_origin"] = {"verdict": c41, "details": c41d}


def _render(record):
    """The text report of a record, one line per reported value."""
    lines = [f"kind: {record['kind']}", f"ring: {', '.join(record['ring'])}"]
    if "param" in record:
        lines.append(f"param: {record['param']}")
    lines += [f"{name}: {', '.join(shown)}" for name, shown in record["bindings"].items()]

    if "mu" in record:
        note = MU_NOTES[record["kind"]].format(seed=record["seed"])
        lines.append(f"mu: {record['mu']}  [{note}]")
    if "discriminant" in record:
        lines.append(f"discriminant: {record['discriminant']}  [reduced eliminant of the "
                     "graph-plus-critical ideal]")
    if "generic" in record:
        lines += [f"{key}: {record[key]}"
                  for key in ("multiplicity", "intersection_number", "generic")]

    if "mu_f_at_0" in record:
        lines.append(f"mu_f_at_0: {record['mu_f_at_0']}  [local colength of <phi> + J(f, phi)]")
        lines += [
            f"sample t={s['t0']}: mu_origin={s['mu_origin']} total={s['total_colength']} "
            f"off_origin={s['off_origin_budget']} distinct_points={s['distinct_points']} "
            f"converges_to_origin={s['converges_to_origin']}"
            for s in record["samples_report"]
        ]
        if record["conservation"] is None:
            lines.append("conservation: INCONCLUSIVE  [no convergence certificate]")
        else:
            lines.append(f"conservation: {record['conservation']}  "
                         "[total at each sample vs mu at t=0]")
    if "greuel" in record:
        g = record["greuel"]
        # sample keys are Fractions, so they sort by value here
        mu_samples = ", ".join(f"{k}: {v}" for k, v in sorted(g["mu_origin_samples"].items()))
        lines += [
            f"cond1_mu_constant: {g['cond1_mu_constant']}  "
            f"[mu at origin {g['mu_origin_base']} vs samples {{{mu_samples}}}]",
            f"cond5_radical: {g['cond5_radical']}  [dF/dt in rad(<phi> + J)]",
            f"cond6_variety: {g['cond6_variety']}  [v(<phi> + J) equals the parameter axis]",
            f"implications_ok: {g['implications_ok']}  [not (cond5 and not cond6)]",
        ]
        lines += [
            f"probe[{i}]: nu(dF/dt.gamma)={pr['nu_numerator']} "
            f"min nu(g_i.gamma)={pr['nu_denominator']} strict={pr['strict']} "
            f"weak={pr['weak']} on_variety={pr['on_variety']}"
            for i, pr in enumerate(g["probes"])
        ]
        lines += [f"{check}: {record[check]['verdict']}"
                  for check in ("radical_implies_axis", "zero_fiber_forces_origin")]
    if "splitting" in record:
        split = record["splitting"]
        totals = "; ".join(f"t={s['t0']}: count={s['count']} total={s['total_fiber_mu']}"
                           for s in split["samples"])
        lines.append(f"splitting: {split['verdict']}  [base fiber mu "
                     f"{split['base_fiber_mu']}; {totals}] {split['reason']}")
    return lines


def _exit_code(record):
    """EXIT_INCONCLUSIVE when a verdict of the record is INCONCLUSIVE: a
    null conservation or an INCONCLUSIVE theorem check."""
    verdicts = [record[check]["verdict"] for check in CHECKS if check in record]
    if record.get("conservation", False) is None or fam_mod.INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


USAGE = """\
usage: icis run FILE [--json] [--seed N] [--samples S] [--budget N]
       icis check FILE

Exact singularity invariants and deformation-family checks.

  run FILE     compute the problem in FILE and print its report
  check FILE   parse and validate FILE only
  --json       append the report record as one JSON line
  --seed N     seed of the ICIS Milnor chain's recombinations
  --samples S  a family's samples: nonzero rationals, e.g. 1,1/2
  --budget N   reduction steps the run may spend, N >= 0
  -h, --help   print this text

Options go before or after FILE, as --opt value or --opt=value.
Exit codes: 0 computed, 2 inconclusive, 3 input or usage error,
4 budget exhausted.
"""

# the options of ``icis run``, each with its value's type; None marks a flag
RUN_OPTIONS = {"--json": None, "--seed": int, "--samples": str, "--budget": int}


def read_argv(argv):
    """``(command, file, options)`` of a command line without ``-h`` or
    ``--help``: ``options`` maps each ``run`` option given to its last
    value (True for ``--json``).  Raises UsageError off the grammar of
    ``USAGE``."""
    if not argv or argv[0] not in ("run", "check"):
        raise UsageError(f"unknown command {argv[0]!r}: expected run or check" if argv
                         else "expected a command: run or check")
    command, files, options = argv[0], [], {}
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if command != "run" or name not in RUN_OPTIONS:
            raise UsageError(f"unknown option {name} for {command}")
        kind = RUN_OPTIONS[name]
        if kind is None and eq:
            raise UsageError(f"{name} takes no value")
        if kind is not None and not eq:
            value = next(rest, None)
            if value is None:
                raise UsageError(f"{name} expects a value")
        try:
            options[name] = True if kind is None else kind(value)
        except ValueError:
            raise UsageError(f"{name} expects an integer, not {value!r}") from None
    if len(files) != 1:
        raise UsageError(f"{command} expects one FILE, got {len(files)}")
    if options.get("--budget", 0) < 0:
        raise UsageError("--budget must be non-negative")
    return command, files[0], options


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return EXIT_OK
    try:
        command, path, options = read_argv(argv)
        with open(path, "rb") as fh:
            problem = parse_problem(fh.read())
        if "--samples" in options:
            if not reads(problem.kind, "samples"):
                raise UsageError(f"kind {problem.kind!r} reads no --samples")
            problem.samples = parse_samples(options["--samples"])
        if command == "check":
            print(f"ok: kind {problem.kind}, ring {', '.join(problem.ring)}")
            return EXIT_OK
        problem.seed = options.get("--seed", problem.seed)
        problem.budget = options.get("--budget", problem.budget)

        started = time.monotonic()
        try:
            with step_budget(problem.budget) as budget:
                lines, data, code = run_problem(problem)
            elapsed = time.monotonic() - started
            if "--json" in options:
                lines.append(json.dumps(_jsonable(data), sort_keys=True))
        except ValueError as exc:
            # the report writes an answer as text, and an int with more
            # digits than sys.get_int_max_str_digits() has none
            if "integer string conversion" not in str(exc):
                raise
            raise AnswerTooLongError(f"the answer has a number of more than "
                                     f"{sys.get_int_max_str_digits()} digits") from None
    except (OSError, IcisError) as exc:
        print(f"error[{'io' if isinstance(exc, OSError) else exc.code}]: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExhaustedError) else EXIT_INPUT

    for line in lines:
        print(line)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    print(f"steps: {budget.spent}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
