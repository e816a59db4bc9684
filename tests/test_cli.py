import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import icis
from icis import basis, cli
from icis.cli import main
from icis.families import DeformationFamily

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

_CUSP_FAMILY = "ring t, x, y;\nparam t;\nkind family-analyze;\n"

# bad inputs written to a temporary directory by test_input_errors_are_3
INVALID_INPUTS = {
    "milnor_unit.icis": "ring x, y;\nf = x^2 + y^2 + 1;\nkind milnor;\n",
    "icis_milnor_unit.icis": "ring x, y;\nphi = x^2 + 1, y^2;\nkind icis-milnor;\n",
    "function_milnor_unit.icis":
        "ring x, y;\nphi = x^2 - y^3;\nf = x + 1;\nkind function-milnor;\n",
    "family_unit_phi.icis": _CUSP_FAMILY + "phi = x^2 - y^3 + 1;\nF = x + t*y;\n",
    "family_unit_F.icis": _CUSP_FAMILY + "phi = x^2 - y^3;\nF = x + t*y + 1;\n",
    "line_unit_delta.icis":
        "ring u, v;\ndelta = u^2 + v^3 + 1;\ndirection 1, 0;\nkind generic-line;\n",
    "line_zero_direction.icis":
        "ring u, v;\ndelta = u^2 + v^3;\ndirection 0, 0;\nkind generic-line;\n",
    "line_direction_length.icis":
        "ring u, v;\ndelta = u^2 + v^3;\ndirection 1, 0, 1;\nkind generic-line;\n",
    "samples_zero_denominator.icis":
        _CUSP_FAMILY + "phi = x^2 - y^3;\nF = x + t*y;\nsamples 1/0;\n",
    "samples_zero.icis": _CUSP_FAMILY + "phi = x^2 - y^3;\nF = x + t*y;\nsamples 1, 0;\n",
    "budget_negative.icis": _CUSP_FAMILY + "phi = x^2 - y^3;\nF = x + t*y;\nbudget -1;\n",
    "ring_repeated.icis": "ring x, x;\nf = x^3;\nkind milnor;\n",
    "superscript_digit.icis": "ring x, y;\nf = x^\u00b2 + y^2;\nkind milnor;\n",
    "binding_repeated.icis": "ring x, y;\nf = x^2 + y^2;\nf = x^3;\nkind milnor;\n",
    "probe_component_repeated.icis": _CUSP_FAMILY
        + "phi = x^2 - y^3;\nF = x + t*y;\nprobe t = s, x = s^3, x = s^5, y = s^2;\n",
    "power_too_large.icis": "ring x, y, z;\nf = (x + y + z)^120;\nkind milnor;\n",
    "kind_unknown.icis": "ring x, y;\nf = x^2 + y^3;\nkind foo-milnor;\n",
    # the member at the sample t = 1 is F = 0, whose critical ideal on phi = y is <y>
    "family_member_not_isolated.icis":
        "ring t, x, y;\nparam t;\nphi = y;\nF = (1 - t)*x^2;\nkind family-analyze;\nsamples 1;\n",
    # past the interpreter's 4,300-digit limit on int()
    "coefficient_too_long.icis": "ring x, y;\nf = " + "7" * 5000 + "x^2 + y^2;\nkind milnor;\n",
    # built coefficients past that limit, which no report could print
    "power_coefficient_too_long.icis": "ring x, y;\nf = (2*x)^20000 + y^2;\nkind milnor;\n",
    "square_coefficient_too_long.icis":
        "ring x, y;\nf = (x + " + "7" * 4000 + ")^2*x^2 + y^2;\nkind milnor;\n",
    # an answer past that limit: mu = (A - 1)^2 has about 4,400 digits
    "answer_too_long.icis": "ring x, y;\nf = x^A + y^A;\nkind milnor;\n".replace("A", "9" * 2200),
    # bindings the kind would silently ignore
    "f_two_polynomials.icis": "ring x, y;\nf = x^2 + y^2, x^3;\nkind milnor;\n",
    "F_two_polynomials.icis": _CUSP_FAMILY + "phi = x^2 - y^3;\nF = x + t*y, y;\n",
    "family_f_for_F.icis": _CUSP_FAMILY + "phi = x^2 - y^3;\nf = x + t*y;\n",
    # statements the kind would silently ignore
    "milnor_param.icis": "ring t, x;\nparam t;\nf = x^2;\nkind milnor;\n",
    "milnor_samples.icis": "ring x, y;\nf = x^2 + y^2;\nsamples 2;\nkind milnor;\n",
    "icis_milnor_direction.icis": "ring x, y;\nphi = x^2, y^2;\ndirection 1, 0;\n"
        "kind icis-milnor;\n",
    "space_family_probe.icis": _CUSP_FAMILY
        + "phi = y^2 - x^3 + t*x;\nprobe t = s, x = s^2, y = s^3;\n",
    # F on a point: its fibers would need more equations than variables
    "family_point_base.icis": "ring t, x;\nparam t;\nphi = x;\nF = x^2 + t*x;\n"
        "kind family-analyze;\n",
    # a zero equation: V(0) is the plane and V(x, 0) a line, both smooth;
    # the space family's base fiber is 0
    "icis_milnor_zero.icis": "ring x, y;\nphi = 0;\nkind icis-milnor;\n",
    "icis_milnor_zero_second.icis": "ring x, y;\nphi = x, 0;\nkind icis-milnor;\n",
    "function_milnor_zero.icis": "ring x, y;\nphi = 0;\nf = x;\nkind function-milnor;\n",
    "space_family_zero_base.icis": _CUSP_FAMILY + "phi = t*y;\n",
    "binding_before_ring.icis": "f = x;\nring x;\nkind milnor;\n",
    "param_not_in_ring.icis": "ring x, y;\nparam t;\nf = x^2 + y^2;\nkind milnor;\n",
    "icis_more_equations.icis": "ring x;\nphi = x^2, x^3;\nkind icis-milnor;\n",
    "discriminant_not_principal.icis": "ring x, y;\nphi = x^2, y^2, x*y;\nkind discriminant;\n",
    "line_zero_delta.icis": "ring u, v;\ndelta = 0;\ndirection 1, 0;\nkind generic-line;\n",
}

# a double surface: ROADMAP's non-reduced germ
NON_REDUCED = "(x^2 - y^3 + z^5)^2*(x + y^2 + z^3)"

# a space family whose one singular point moves with t: the cusp at (t, 0)
MOVING_CUSP = _CUSP_FAMILY + "phi = y^2 - (x - t)^3;\n"


def _count_calls(monkeypatch, names):
    """Count calls to the named functions, wrapped in every icis module
    that holds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n == "icis" or n.startswith("icis.")]
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def run_cli(*argv, capsys=None):
    # main returns every exit code, a usage error's and --help's included
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _script_target(name):
    """The ``[project.scripts]`` entry of ``name`` in pyproject.toml, by a
    line scan (``tomllib`` needs Python 3.11)."""
    section = None
    for line in PYPROJECT.read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project.scripts]" and line.split("=")[0].strip() == name:
            return line.split("=", 1)[1].strip().strip('"')
    return None


class TestRun:
    def test_milnor(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "milnor_morse.icis"), capsys=capsys)
        assert code == 0
        assert "mu: 1" in out

    def test_module_entry_point(self):
        # a separate interpreter runs the module's __main__ guard
        src = str(pathlib.Path(icis.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "icis.cli", "run", str(FIXTURES / "milnor_morse.icis")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "mu: 1" in proc.stdout

    def test_no_argument_parser_modules(self):
        # argparse, and the gettext and locale it imports, cost a one-shot
        # run more than a small problem's mathematics
        src = str(pathlib.Path(icis.__file__).parents[1])
        fixture = str(FIXTURES / "milnor_morse.icis")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys, icis.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             f"    codes = [icis.cli.main([c, {fixture!r}]) for c in ('run', 'check')]\n"
             "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0] []\n"

    def test_console_script_target(self):
        module, attr = _script_target("icis").split(":")
        target = getattr(importlib.import_module(module), attr)
        assert callable(target)
        assert target is main

    def test_icis_milnor(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "icis_milnor_pair.icis"), capsys=capsys)
        assert code == 0
        assert "mu: 3" in out

    def test_function_milnor(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "function_milnor.icis"), capsys=capsys)
        assert code == 0
        assert "mu: 4" in out

    def test_discriminant(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "discriminant_plane.icis"), capsys=capsys)
        assert code == 0
        assert "discriminant: u^3 + 27/4*v^2" in out

    def test_generic_line(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "generic_line.icis"), capsys=capsys)
        assert code == 0
        assert "multiplicity: 2" in out
        assert "intersection_number: 3" in out
        assert "generic: False" in out

    def test_family_analyze(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert code == 0
        assert "mu_f_at_0: 4" in out
        assert "sample t=1: mu_origin=3 total=4 off_origin=1 distinct_points=2" in out
        assert "sample t=1/2: mu_origin=3 total=4" in out
        assert "conservation: True" in out
        assert "cond1_mu_constant: False" in out
        assert "cond5_radical: False" in out
        assert "cond6_variety: False" in out
        assert "implications_ok: True" in out
        assert "radical_implies_axis: VERIFIED" in out
        assert "zero_fiber_forces_origin: VACUOUS" in out
        assert "splitting: VACUOUS" in out

    def test_family_probe_line(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert code == 0
        assert (
            "probe[0]: nu(dF/dt.gamma)=2 min nu(g_i.gamma)=inf "
            "strict=False weak=False on_variety=True" in out
        )

    def test_greuel_check(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "greuel_cusp.icis"), capsys=capsys)
        assert code == 0
        assert "cond5_radical: False" in out
        assert "radical_implies_axis: VERIFIED" in out

    def test_space_family(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "space_tacnode.icis"), capsys=capsys)
        assert code == 0
        assert "splitting: VACUOUS" in out
        assert "t=1: count=2 total=2" in out

    def test_icis_family_with_two_singular_points(self, capsys):
        # the tacnode on the surface z = -x*y: two nodes in each fiber
        path = FIXTURES / "icis_tacnode_splitting.icis"
        code, out, _ = run_cli("run", str(path), capsys=capsys)
        assert code == 0
        assert (
            "splitting: VACUOUS  [base fiber mu 3; "
            "t=1: count=2 total=2; t=1/2: count=2 total=2]" in out
        )

    def test_space_family_moving_point(self, tmp_path, capsys):
        path = tmp_path / "moving_cusp.icis"
        path.write_text(MOVING_CUSP)
        code, out, _ = run_cli("run", str(path), "--json", capsys=capsys)
        assert code == 0
        assert (
            "splitting: CONSISTENT-WITH-THEOREM  [base fiber mu 2; "
            "t=1: count=1 total=2; t=1/2: count=1 total=2]" in out
        )
        samples = json.loads(out.splitlines()[-1])["splitting"]["samples"]
        assert [s["point_mu"] for s in samples] == ["2", "2"]


class TestExitCodes:
    def test_inconclusive_is_2(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "inconclusive.icis"), capsys=capsys)
        assert code == 2
        assert "conservation: INCONCLUSIVE" in out
        assert "radical_implies_axis: INCONCLUSIVE" in out

    def test_inconclusive_greuel_verdict_is_2(self, tmp_path, capsys):
        # conservation is not printed by greuel-check; the one
        # INCONCLUSIVE verdict alone sets the exit code
        path = tmp_path / "greuel_inconclusive.icis"
        path.write_text(
            "ring t, x, y;\nparam t;\nphi = y;\nF = x^3 - x^2;\nkind greuel-check;\n"
        )
        code, out, _ = run_cli("run", str(path), capsys=capsys)
        assert code == 2
        assert "radical_implies_axis: INCONCLUSIVE" in out

    def test_inconclusive_splitting_is_2(self, tmp_path, capsys):
        # a space family reports splitting alone: the node whose second
        # branch point escapes as t goes to 0 has no convergence
        # certificate, and that one verdict sets the exit code
        path = tmp_path / "escaping_node.icis"
        path.write_text("ring t, x, y;\nparam t;\nphi = y^2 - x^2*(1 - t*x)^2;\n"
                        "kind family-analyze;\n")
        code, out, _ = run_cli("run", str(path), capsys=capsys)
        assert code == 2
        verdicts = [line for line in out.splitlines() if "INCONCLUSIVE" in line]
        assert len(verdicts) == 1 and verdicts[0].startswith("splitting: INCONCLUSIVE  [")

    def test_inconclusive_in_the_text_is_not_a_verdict(self, tmp_path, capsys):
        # the exit code is read off the verdicts, not off the text lines
        path = tmp_path / "inconclusive_name.icis"
        path.write_text("ring INCONCLUSIVE, y;\nf = INCONCLUSIVE^2 + y^3;\nkind milnor;\n")
        code, out, _ = run_cli("run", str(path), capsys=capsys)
        assert code == 0
        assert "mu: 2  [" in out

    @pytest.mark.parametrize(
        "name,code_fragment",
        [
            ("bad_syntax.icis", "syntax-error"),
            ("bad_unbound.icis", "unbound-name"),
            ("bad_missing_param.icis", "missing-parameter"),
            ("nonisolated.icis", "non-isolated"),
            ("family_member_not_isolated.icis",
             "non-isolated]: critical ideal at t=1 is not zero-dimensional"),
            ("milnor_unit.icis", "invalid-input"),
            ("icis_milnor_unit.icis", "invalid-input"),
            ("function_milnor_unit.icis", "invalid-input"),
            ("family_unit_phi.icis", "invalid-input"),
            ("family_unit_F.icis", "invalid-input"),
            ("line_unit_delta.icis", "invalid-input"),
            ("line_zero_direction.icis", "invalid-input"),
            ("line_direction_length.icis", "invalid-input"),
            ("samples_zero_denominator.icis", "syntax-error"),
            ("samples_zero.icis", "syntax-error"),
            ("budget_negative.icis", "syntax-error"),
            ("ring_repeated.icis", "syntax-error"),
            ("superscript_digit.icis", "syntax-error"),
            ("binding_repeated.icis", "syntax-error"),
            ("probe_component_repeated.icis", "syntax-error"),
            ("power_too_large.icis --budget 10", "expansion-too-large"),
            ("kind_unknown.icis", "syntax-error]: line 3, column 6: unknown kind 'foo-milnor';"),
            ("coefficient_too_long.icis", "syntax-error"),
            ("power_coefficient_too_long.icis", "syntax-error]: line 2, column 10:"),
            ("power_coefficient_too_long.icis --json", "syntax-error]: line 2, column 10:"),
            ("square_coefficient_too_long.icis", "syntax-error]: line 2, column 5:"),
            ("square_coefficient_too_long.icis --json", "syntax-error]: line 2, column 5:"),
            ("answer_too_long.icis", "answer-too-long]: the answer has a number of more than"),
            ("answer_too_long.icis --json", "answer-too-long"),
            ("f_two_polynomials.icis", "syntax-error]: line 2, column 1:"),
            ("F_two_polynomials.icis", "syntax-error]: line 5, column 1:"),
            ("family_f_for_F.icis", "syntax-error]: line 5, column 1:"),
            ("milnor_param.icis", "syntax-error]: line 2, column 1:"),
            ("milnor_samples.icis", "syntax-error]: line 3, column 1:"),
            ("icis_milnor_direction.icis", "syntax-error]: line 3, column 1:"),
            ("space_family_probe.icis", "syntax-error]: line 5, column 1:"),
            ("family_point_base.icis", "invalid-input"),
            *[(f"{name}.icis",
               "error[invalid-input]: zero equation: V(phi) is not cut out by p equations")
              for name in ("icis_milnor_zero", "icis_milnor_zero_second",
                           "function_milnor_zero", "space_family_zero_base")],
            ("binding_before_ring.icis", "error[syntax-error]: line 1, column 1: "
             "binding or probe before ring declaration (got 'f')"),
            ("param_not_in_ring.icis",
             "error[unbound-name]: line 2, column 7: parameter 't' is not a ring variable"),
            ("icis_more_equations.icis", "error[invalid-input]: need 1 <= p <= n, got p=2, n=1"),
            ("discriminant_not_principal.icis",
             "error[unsupported-input]: discriminant eliminant is not principal"),
            ("line_zero_delta.icis", "error[zero-input]: multiplicity of 0"),
            ("ex43_23.icis --samples abc", "syntax-error"),
            ("ex43_23.icis --samples 1/0", "syntax-error"),
            ("ex43_23.icis --samples 1,0", "syntax-error"),
            ("ex43_23.icis --budget -1", "usage"),
            ("ex43_23.icis --budget abc", "usage"),
        ],
    )
    def test_input_errors_are_3(self, tmp_path, capsys, name, code_fragment):
        file, *flags = name.split()
        path = FIXTURES / file
        if file in INVALID_INPUTS:
            path = tmp_path / file
            path.write_text(INVALID_INPUTS[file])
        code, out, err = run_cli("run", str(path), *flags, capsys=capsys)
        assert code == 3
        assert code_fragment in err

    # non-isolated ICIS, each held to the steps it spends: the stages of
    # its Milnor chain up to the first infinite one, then, only when that
    # stage is not the last, the singular ideal's colength, which is
    # infinite.  Only the fifth has an infinite stage before its last
    @pytest.mark.parametrize("ring, phi, steps", [
        ("x, y, z", "x*y", 0),
        ("w, x, y, z", "w^2 + x^3 + y*z, x*y", 170),
        ("x, y, z", "x^2 + y^3 + z^4, (x + y + z)^2*x", 2370),
        ("w, x, y, z", f"w, {NON_REDUCED}", 3522),
        ("w, x, y, z", f"{NON_REDUCED}, w", 21667),
        ("x, y, z", NON_REDUCED, 37324),
    ])
    def test_non_isolated_icis_is_3(self, tmp_path, capsys, ring, phi, steps):
        path = tmp_path / "x.icis"
        path.write_text(f"ring {ring};\nphi = {phi};\nkind icis-milnor;\n")
        code, out, err = run_cli("run", str(path), "--budget", str(steps), capsys=capsys)
        assert (code, out) == (3, "")
        assert err == "error[non-isolated]: singular locus is not isolated at the origin\n"

    def test_budget_exhaustion_is_4(self, tmp_path, capsys):
        f = tmp_path / "b.icis"
        f.write_text(
            "ring t, x, y;\nparam t;\nphi = x^2 - y^3;\nF = x + t*y;\n"
            "kind family-analyze;\nbudget 10;\n"
        )
        code, _, err = run_cli("run", str(f), capsys=capsys)
        assert code == 4
        assert "budget-exhausted" in err

    def test_large_exponent_colength_is_fast(self, tmp_path, capsys):
        # the standard monomials are counted per cell of the staircase,
        # not one by one: 2,999,999 of them, and no step is spent
        path = tmp_path / "big.icis"
        path.write_text("ring x, y;\nf = x^3000000 + y^2;\nkind milnor;\n")
        start = time.perf_counter()
        code, out, err = run_cli("run", str(path), "--budget", "10", capsys=capsys)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "mu: 2999999  [" in out
        assert "steps: 0" in err

    def test_missing_file_is_3(self, capsys):
        path = str(FIXTURES / "does_not_exist.icis")
        assert run_cli("run", path, capsys=capsys) == (
            3, "", f"error[io]: [Errno 2] No such file or directory: {path!r}\n")


class TestSinglePass:
    def test_family_quantities_are_computed_once(self, monkeypatch, capsys):
        counts = _count_calls(
            monkeypatch,
            ("converges_to_origin", "radical_membership", "function_on_icis_milnor"),
        )
        radical_tests = []
        in_radical = DeformationFamily.in_critical_radical
        monkeypatch.setattr(
            DeformationFamily, "in_critical_radical",
            lambda fam, f: radical_tests.append(f) or in_radical(fam, f),
        )
        colengths = []
        original = basis.local_colength

        def local_colength(gens, ring):
            colengths.append(tuple(gens))
            return original(gens, ring)

        monkeypatch.setattr(basis, "local_colength", local_colength)
        code, _, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert code == 0
        # one certificate, the critical ideal's: it covers the fiber
        # singular points, so the splitting check completes none of its
        # own; cond5 and the zero-fiber hypothesis, each refuted on a
        # sample fiber without a Rabinowitsch completion, and cond6 by a
        # sample report's off-origin budget, with no radical test
        assert counts == {
            "converges_to_origin": 1,
            "radical_membership": 0,
            "function_on_icis_milnor": 1,
        }
        assert len(radical_tests) == 2
        # the base's Milnor chain, which its isolation check computes and
        # the splitting check reads, mu0 and one per sample report; the
        # splitting totals reuse mu0 and the reports (Le-Greuel), and each
        # report's cut by F_t, which the splitting check and the zero-fiber
        # hypothesis share, is counted from its colength and eliminants
        # with no local colength, so no generator set is localized twice
        assert len(colengths) == 4
        assert len(set(colengths)) == len(colengths)

    def test_certificate_is_computed_when_read(self, monkeypatch, capsys):
        # greuel-check prints no certificate and its verdicts do not read
        # one here (ex43_23's family-analyze run above makes 1 call)
        counts = _count_calls(monkeypatch, ("converges_to_origin",))
        code, _, _ = run_cli("run", str(FIXTURES / "greuel_cusp.icis"), capsys=capsys)
        assert code == 0
        assert counts == {"converges_to_origin": 0}

    def test_greuel_check_is_the_family_analyze_middle(self, capsys):
        def greuel_block(out):
            lines = out.splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith("cond1_mu_constant:"))
            end = next(i for i, l in enumerate(lines) if l.startswith("zero_fiber_forces_origin:"))
            return lines[start:end + 1]

        _, greuel, _ = run_cli("run", str(FIXTURES / "greuel_cusp.icis"), capsys=capsys)
        _, analyze, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert greuel_block(greuel) == greuel_block(analyze)


class TestCheck:
    def test_valid_file(self, capsys):
        code, out, _ = run_cli("check", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert code == 0
        assert out.startswith("ok:")

    def test_invalid_file(self, capsys):
        code, _, err = run_cli("check", str(FIXTURES / "bad_syntax.icis"), capsys=capsys)
        assert code == 3
        assert "line 2" in err


# the argv table: "F" stands for greuel_cusp.icis, whose report moves
# with both --seed and --samples.  Accepted forms, each with its exit
# code and the golden variant of its stdout (None: no stdout)
ARGV_FORMS = [
    (["run", "F", "--json"], 0, "json"),
    (["run", "--json", "F"], 0, "json"),
    (["run", "--samples", "3,1/4", "--json", "F"], 0, "json-samples"),
    (["run", "F", "--samples=3,1/4", "--json"], 0, "json-samples"),
    (["run", "--seed=2", "F", "--json"], 0, "seed2-json"),
    (["run", "F", "--json", "--seed", "2"], 0, "seed2-json"),
    (["run", "--seed", "7", "F", "--json", "--seed=2"], 0, "seed2-json"),
    (["run", "--budget=32", "F"], 0, "plain"),
    (["run", "F", "--budget", "16", "--budget", "15"], 4, None),
]

# -h or --help anywhere: exit 0 and USAGE on stdout
ARGV_HELP = [["-h"], ["--help"], ["run", "-h"], ["run", "--help"],
             ["run", "F", "--json", "--help"], ["check", "F", "-h"], ["frob", "--help"]]

# usage errors: exit 3, no stdout, and this error[usage] line on stderr
ARGV_ERRORS = [
    ([], "expected a command: run or check"),
    (["frob", "F"], "unknown command 'frob': expected run or check"),
    (["--json", "run", "F"], "unknown command '--json': expected run or check"),
    (["run"], "run expects one FILE, got 0"),
    (["check", "--"], "unknown option -- for check"),
    (["run", "F", "F"], "run expects one FILE, got 2"),
    (["run", "F", "--frob"], "unknown option --frob for run"),
    (["run", "F", "--bud", "5"], "unknown option --bud for run"),
    (["run", "F", "-j"], "unknown option -j for run"),
    (["check", "F", "--json"], "unknown option --json for check"),
    (["check", "--budget=5", "F"], "unknown option --budget for check"),
    (["run", "F", "--seed"], "--seed expects a value"),
    (["run", "F", "--samples"], "--samples expects a value"),
    (["run", "F", "--seed", "x"], "--seed expects an integer, not 'x'"),
    (["run", "F", "--budget=1.5"], "--budget expects an integer, not '1.5'"),
    (["run", "F", "--budget", "-1"], "--budget must be non-negative"),
    (["run", "--budget=-1", "F"], "--budget must be non-negative"),
    (["run", "F", "--json=1"], "--json takes no value"),
]


def _cusp_argv(argv):
    return [str(FIXTURES / "greuel_cusp.icis") if a == "F" else a for a in argv]


class TestArgv:
    @pytest.mark.parametrize("argv, code, variant", ARGV_FORMS,
                             ids=[" ".join(row[0]) for row in ARGV_FORMS])
    def test_accepted_forms(self, capsys, argv, code, variant):
        got, out, err = run_cli(*_cusp_argv(argv), capsys=capsys)
        assert got == code
        expected = "" if variant is None else (GOLDEN / f"greuel_cusp.{variant}.out").read_text()
        assert out == expected
        assert "error[usage]" not in err

    @pytest.mark.parametrize("argv", ARGV_HELP, ids=[" ".join(argv) for argv in ARGV_HELP])
    def test_help(self, capsys, argv):
        assert run_cli(*_cusp_argv(argv), capsys=capsys) == (0, cli.USAGE, "")
        assert cli.USAGE.startswith("usage: icis run FILE [--json] [--seed N] [--samples S] "
                                    "[--budget N]\n       icis check FILE\n")

    @pytest.mark.parametrize("argv, message", ARGV_ERRORS,
                             ids=[" ".join(row[0]) or "no-arguments" for row in ARGV_ERRORS])
    def test_usage_errors(self, capsys, argv, message):
        assert run_cli(*_cusp_argv(argv), capsys=capsys) == (3, "", f"error[usage]: {message}\n")

    def test_option_value_may_start_with_a_minus(self, capsys):
        code, out, _ = run_cli(*_cusp_argv(["run", "F", "--samples", "-1/2"]), capsys=capsys)
        assert code == 0
        assert "[mu at origin 4 vs samples {-1/2: 3}]" in out


class TestFlags:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            "run", str(FIXTURES / "milnor_morse.icis"), "--json", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["mu"] == "1"
        assert payload["kind"] == "milnor"

    def test_samples_override(self, capsys):
        code, out, _ = run_cli(
            "run",
            str(FIXTURES / "ex43_23.icis"),
            "--samples",
            "3,1/4",
            capsys=capsys,
        )
        assert code == 0
        assert "sample t=3: mu_origin=3 total=4" in out
        assert "sample t=1/4: mu_origin=3 total=4" in out

    def test_samples_refused_where_the_kind_reads_none(self, capsys):
        # as a samples statement in a milnor file is; the goldens of
        # every such fixture under --samples pin exit 3 and no stdout
        argv = ["run", str(FIXTURES / "milnor_morse.icis"), "--samples", "3"]
        assert run_cli(*argv, capsys=capsys) == (
            3, "", "error[usage]: kind 'milnor' reads no --samples\n")

    def test_seed_override_is_stable(self, capsys):
        outs = set()
        for seed in ("1", "2"):
            code, out, _ = run_cli(
                "run",
                str(FIXTURES / "icis_milnor_pair.icis"),
                "--seed",
                seed,
                capsys=capsys,
            )
            assert code == 0
            outs.add(out.split("[")[0])
        assert len(outs) == 1  # the invariant does not depend on the seed

    def test_budget_override(self, capsys):
        code, _, err = run_cli(
            "run",
            str(FIXTURES / "ex43_23.icis"),
            "--budget",
            "10",
            capsys=capsys,
        )
        assert code == 4
        assert "budget-exhausted" in err


class TestRunBudget:
    @staticmethod
    def steps(err):
        return int(next(l for l in err.splitlines() if l.startswith("steps: "))[7:])

    def test_budget_caps_the_whole_run(self, capsys):
        path = str(FIXTURES / "ex43_23.icis")
        code, out, err = run_cli("run", path, capsys=capsys)
        assert code == 0
        assert "steps" not in out
        n = self.steps(err)
        assert n > 0
        code, _, err = run_cli("run", path, "--budget", str(n), capsys=capsys)
        assert code == 0
        assert self.steps(err) == n
        code, _, err = run_cli("run", path, "--budget", str(n - 1), capsys=capsys)
        assert code == 4
        assert "budget-exhausted" in err
        # the exhausted budget does not leak into the next in-process run
        code, _, err = run_cli("run", path, capsys=capsys)
        assert code == 0
        assert self.steps(err) == n


class TestDeterminism:
    def test_stdout_is_byte_identical_across_runs(self, capsys):
        results = []
        for _ in range(3):
            code, out, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
            assert code == 0
            results.append(out)
        assert results[0] == results[1] == results[2]

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli("run", str(FIXTURES / "milnor_morse.icis"), capsys=capsys)
        assert "elapsed" not in out
        assert "elapsed" in err


def _readme_problems():
    """The ``text`` blocks of README.md: every one is a problem file."""
    blocks = README.read_text(encoding="utf-8").split("```text\n")[1:]
    return [block.split("```")[0] for block in blocks]


README_PROBLEMS = _readme_problems()


@pytest.mark.parametrize("text", README_PROBLEMS,
                         ids=[f"block{i}" for i in range(len(README_PROBLEMS))])
def test_readme_problem_runs(text, tmp_path, capsys):
    path = tmp_path / "readme.icis"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli("run", str(path), capsys=capsys)
    assert code in (0, 2), err


def test_readme_library_example_runs(capsys):
    """The ``python`` block of README.md prints what its comments say."""
    (block,) = [b.split("```")[0]
                for b in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    exec(compile(block, "README.md", "exec"), {})
    mu, spent, values, certificate = capsys.readouterr().out.splitlines()
    assert mu == "6"
    assert int(spent) > 0
    assert values == "4 False False False"
    assert certificate == "True"
