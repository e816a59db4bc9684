import io
import json
import pathlib
import sys
import time

import pytest

from icis.cli import main
from icis.families import DeformationFamily

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
README = pathlib.Path(__file__).parents[1] / "README.md"

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
    # past the interpreter's 4,300-digit limit on int()
    "coefficient_too_long.icis": "ring x, y;\nf = " + "7" * 5000 + "x^2 + y^2;\nkind milnor;\n",
}

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
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors, as the shell sees them
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestRun:
    def test_milnor(self, capsys):
        code, out, _ = run_cli("run", str(FIXTURES / "milnor_morse.icis"), capsys=capsys)
        assert code == 0
        assert "mu: 1" in out

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

    @pytest.mark.parametrize(
        "name,code_fragment",
        [
            ("bad_syntax.icis", "syntax-error"),
            ("bad_unbound.icis", "unbound-name"),
            ("bad_missing_param.icis", "missing-parameter"),
            ("nonisolated.icis", "non-isolated"),
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
            ("coefficient_too_long.icis", "syntax-error"),
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
        code, _, err = run_cli("run", str(FIXTURES / "does_not_exist.icis"), capsys=capsys)
        assert code == 3


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
        code, _, _ = run_cli("run", str(FIXTURES / "ex43_23.icis"), capsys=capsys)
        assert code == 0
        # one certificate each for the critical and the fiber-singular
        # ideal; cond5, cond6 (stops at x) and the zero-fiber hypothesis,
        # each refuted on a sample fiber without a Rabinowitsch completion
        assert counts == {
            "converges_to_origin": 2,
            "radical_membership": 0,
            "function_on_icis_milnor": 1,
        }
        assert len(radical_tests) == 3

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
