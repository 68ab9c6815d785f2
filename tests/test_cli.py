import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pblab import acceptance, deformed, gl2
from pblab.acceptance import CriterionResult
from pblab.cli import main, parse_complex, parse_gl2
from pblab.fock import pseudo_pair
from pblab.quantize import Weight, oracle_deviation

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_examples():
    """(argv, expected exit code) for each `pblab ...` line of the README's
    command-line block; a trailing comment saying "exits 1" sets the code."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        cmd, _, comment = line.partition("#")
        argv = shlex.split(cmd)
        if argv:
            assert argv[0] == "pblab"
            examples.append((argv[1:], 1 if "exits 1" in comment else 0))
    return examples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("1.5:2") == 1.5 + 2j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("1+1i") == 1 + 1j
        assert parse_complex("1+1j") == 1 + 1j
        with pytest.raises(Exception):
            parse_complex("not-a-number")

    def test_matrix_forms(self):
        g = parse_gl2("1,1,0,1")
        assert (g.g11, g.g12, g.g21, g.g22) == (1, 1, 0, 1)
        g = parse_gl2("1:0,0:2,0:0,1:0")
        assert g.g12 == 2j
        with pytest.raises(Exception):
            parse_gl2("1,2,3")
        with pytest.raises(Exception):
            parse_gl2("1,2,2,4")  # singular


class TestSubcommands:
    def test_hermite_eval_example(self, capsys):
        code, out = run_cli(capsys, "hermite", "--n1", "0", "--n2", "0", "--eval", "1+1i")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["results"][0]["re"] == pytest.approx(1.0)

    def test_rep_homomorphism_example(self, capsys):
        code, out = run_cli(capsys, "rep", "--g", "1,1,0,1", "--L", "2", "--check", "homomorphism")
        payload = json.loads(out)
        assert code == 0 and payload["passed"]

    def test_quantize_table_example(self, capsys):
        code, out = run_cli(capsys, "quantize", "--s", "0", "--n-max", "5")
        payload = json.loads(out)
        assert code == 0
        closed = [row["closed_form"] for row in payload["results"]]
        assert closed == [2.0, -2.0, 2.0, -2.0, 2.0, -2.0]

    def test_quantize_reads_one_weight_from_its_options(self, capsys):
        argv = ["quantize", "--check", "oracle", "--s", "-0.5", "--alpha", "0.3", "--beta", "0.2:-0.1"]
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)
        pair = pseudo_pair(gl2.GL2Matrix(1, 1, 0, 1), 8)
        expected = oracle_deviation(pair, "z", 0.01, Weight(0.3, 0.2 - 0.1j, -0.5))
        (row,) = payload["results"]
        # the mollifier bias at the default regularizer, 0.01, is 0.13: far
        # above the default tolerance, so the check fails as it should
        assert code == 1 and row["deviation"] == expected
        params = payload["params"]
        assert (params["alpha"], params["beta"], params["s"]) == ("0.3", "0.2:-0.1", -0.5)
        assert "weight" not in params

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("quantize", "--check", "table", "--alpha", "0.3"), None),
            (("quantize", "--check", "pseudo-canonical", "--s", "1"), None),
            (("quantize",), "weight = unit\n"),
        ],
        ids=["table-with-drift", "divergent-s", "weight-selector-in-config"],
    )
    def test_quantize_rejects_what_its_weight_cannot_be(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "weight.cfg"
            cfg.write_text(config)
            argv += ("--config", str(cfg))
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    def test_deformed_gram(self, capsys):
        code, out = run_cli(capsys, "deformed", "--g", "1,1,0,1", "--l-max", "4", "--check", "gram")
        assert code == 0
        assert json.loads(out)["results"][0]["deviation"] <= 1e-10

    def test_deformed_gram_reaches_L20(self, capsys):
        # the shear reads 3.4e-9 here: eps times the largest sum of
        # w |dual| |deformed| over the nodes is 3.3e-9, so the default 1e-9
        # sits below its double-precision floor
        code, out = run_cli(capsys, "deformed", "--g", "1,1,0,1", "--l-max", "20", "--check", "gram",
                            "--tol", "1e-8")
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["pass"] and row["deviation"] <= 1e-8

    @pytest.mark.parametrize("spec", ["1,1,0,1", "1.2,0.3:0.1,0.2,0.9"])
    def test_deformed_table_matches_per_index_norms(self, capsys, spec):
        # the table takes one call per sector; each row must read the
        # per-index value, up to the order of the positive terms' sum
        code, out = run_cli(capsys, "deformed", "--g", spec, "--check", "table", "--l-max", "12")
        assert code == 0
        g = parse_gl2(spec)
        rows = json.loads(out)["results"]
        assert [(r["n1"], r["n2"]) for r in rows] == [(m, L - m) for L in range(13) for m in range(L + 1)]
        for row in rows:
            n1, n2 = row["n1"], row["n2"]
            assert row["norm_sq"] == pytest.approx(deformed.norm_sq(g, n1, n2), rel=1e-14, abs=0)
            assert row["dual_norm_sq"] == pytest.approx(deformed.dual_norm_sq(g, n1, n2), rel=1e-14, abs=0)

    def test_fock_all(self, capsys):
        code, out = run_cli(capsys, "fock", "--g", "1,1,0,1", "--l-max", "8")
        payload = json.loads(out)
        assert code == 0
        names = {row["check"] for row in payload["results"]}
        assert {"two-mode-ccr", "pseudo-commutator", "cuntz-relations"} <= names

    def test_displace_checks(self, capsys):
        code, out = run_cli(
            capsys, "displace", "--z1", "1", "--z2", "0:1", "--l-max", "20", "--check-l", "6"
        )
        assert code == 0

    def test_displace_rows_report_the_sizes_they_ran_at(self, capsys):
        code, out = run_cli(capsys, "displace", "--l-max", "30", "--check", "all")
        assert code == 0
        sizes = {row["check"]: row.get("l_max") for row in json.loads(out)["results"]}
        assert [sizes[c] for c in ("resolution-of-identity", "norm-growth", "bicoherent-overlap")] == [14, 14, 20]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "asympt", "--r", "0.5", "--n1", "200", "--d", "0", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:7] == ["n1", "n2", "r", "nu_or_d", "log_exact", "log_estimate", "ratio"]

    def test_exit_code_two_on_bad_config(self, capsys):
        code, _ = run_cli(capsys, "asympt", "--r", "1.5", "--n1", "10", "--d", "0")
        assert code == 2

    def test_zero_regularizer_exits_two(self, capsys):
        code, out = run_cli(capsys, "quantize", "--check", "oracle", "--regularizer", "0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("displace", "--l-max", "4", "--check-l", "10", "--check", "covariance"),
            ("displace", "--l-max", "4", "--check-l", "10", "--check", "compose"),
            ("deformed", "--g", "1,1,0,1", "--check", "table", "--l-max", "-1"),
            ("quantize", "--check", "table", "--n-max", "-1"),
        ],
    )
    def test_vacuous_sizes_exit_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    def test_table_past_double_range_exits_two(self, capsys):
        # the bounds C(L, n1) a^n1 d^n2 (a, d ~ 1e12) leave double range at
        # L = 25, where the log-domain sandwich still holds
        argv = ["deformed", "--g", "1e6,1e6,0,1e6", "--check", "table", "--l-max"]
        assert run_cli(capsys, *argv, "24")[0] == 0
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(argv + ["25"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: norms at n1 + n2 = 25 leave double range")

    @pytest.mark.parametrize(
        "option, argv",
        [
            ("--max-degree", ("hermite", "--check", "equivalence", "--max-degree", "-1")),
            ("--trials", ("rep", "--g", "1,1,0,1", "--trials", "0")),
            ("--l-max", ("deformed", "--g", "1,1,0,1", "--check", "norm-identity", "--l-max", "-1")),
            ("--l-max", ("deformed", "--g", "1,1,0,1", "--check", "gram", "--l-max", "-1")),
        ],
        ids=["hermite", "rep", "deformed-norm-identity", "deformed-gram"],
    )
    def test_empty_sizes_name_their_option(self, capsys, option, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and option in captured.err

    @pytest.mark.parametrize("check, L", [("star", "1030"), ("diag", "1100")])
    def test_degree_past_double_range_exits_two(self, capsys, check, L):
        code = main(["rep", "--g", "0.6,0.8,-0.8,0.6", "--L", L, "--check", check])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "1029" in captured.err

    def test_fock_all_at_L100(self, capsys):
        # blockwise: dim 5151, where one dense d x d matrix would take 424 MB
        _, out = run_cli(capsys, "fock", "--g", "1.1,0.2,0.1,0.9", "--l-max", "100")
        names = [row["check"] for row in json.loads(out)["results"]]
        assert names == [
            "two-mode-ccr", "deformed-ccr", "pseudo-commutator",
            "ladder-on-deformed-family", "cuntz-relations", "metric-inverse-pair",
        ]

    def test_star_law_at_L100(self, capsys):
        # a 1.01-scaled rotation by pi/4: the q-sum summed directly cancels
        # to about 1e-5 of the block maximum here
        code, out = run_cli(
            capsys, "rep", "--g", "0.7141778,-0.7141778,0.7141778,0.7141778",
            "--L", "100", "--check", "star",
        )
        assert code == 0, out

    def test_exit_code_one_on_failed_check(self, capsys):
        code, out = run_cli(
            capsys, "rep", "--g", "1,1,0,1", "--L", "4", "--check", "inverse", "--tol", "1e-30"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestOutputs:
    def test_atomic_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = run_cli(
            capsys, "hermite", "--check", "equivalence", "--max-degree", "4",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["passed"] is True
        assert not list(tmp_path.glob(".pblab-*"))  # no temp litter

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["rep", "--g", "1,1,0,1", "--L", "6", "--check", "homomorphism", "--seed", "3"]
        run_cli(capsys, *argv, "--out", str(a))
        run_cli(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep setup\nl-max = 4\ncheck = gram\n")
        code, out = run_cli(
            capsys, "deformed", "--g", "1,1,0,1", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["params"]["l_max"] == 4

    @pytest.mark.parametrize("sub", ["hermite", "deformed", "bounds", "asympt", "fock", "displace", "quantize", "suite"])
    def test_seed_only_on_rep(self, sub, tmp_path, capsys):
        argv = {"deformed": ["--g", "1,1,0,1"], "bounds": ["--g", "1,1,0,1"]}.get(sub, [])
        with pytest.raises(SystemExit) as exc:
            main([sub, *argv, "--seed", "3"])
        assert exc.value.code == 2
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 3\n")
        code, out = run_cli(capsys, sub, *argv, "--config", str(cfg))
        assert code == 2 and out == ""

    def test_config_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 3\n")
        code, _ = run_cli(capsys, "deformed", "--g", "1,1,0,1", "--config", str(cfg))
        assert code == 2

    def test_config_rejects_values_outside_the_choices(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("check = bogus\n")
        code = main(["fock", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "bogus" in captured.err

    def test_config_names_a_value_that_does_not_parse(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# fock setup\nl-max = abc\n")
        code = main(["fock", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:2: l-max = 'abc'")


class TestImports:
    def test_battery_leaves_scipy_sparse_unloaded(self):
        # scipy.sparse costs import time and resident memory on every run
        code = (
            "import sys, pblab.cli\n"
            "from pblab import acceptance\n"
            "acceptance.run_all()\n"
            "assert 'scipy.sparse' not in sys.modules, sorted(m for m in sys.modules if 'sparse' in m)\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "argv, code",
        [ex for ex in readme_examples() if ex[0][0] != "suite"],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_example_output_and_exit_code(self, capsys, argv, code):
        got, out = run_cli(capsys, *argv)
        assert got == code
        if "csv" in argv:
            header = out.splitlines()[0]
            assert f"`{header}`" in README.read_text()  # the documented header
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
        else:
            payload = json.loads(out)
            assert payload["schema"] == 1
            assert payload["passed"] is (code == 0)
            assert payload["passed"] == all(r["pass"] for r in payload["results"])

    def test_suite_example_is_listed(self):
        assert (["suite"], 0) in readme_examples()


class TestSuiteOutput:
    def test_stdout_is_json_and_lines_go_to_stderr(self, capsys, monkeypatch):
        stubs = [
            CriterionResult(1, "stub one", 1e-13, 1e-12, True, 0.5),
            CriterionResult(2, "stub two", 1e-3, 1e-10, False, 0.25),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda: stubs)
        code = main(["suite"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert [row["pass"] for row in payload["results"]] == [True, False]
        assert captured.err.splitlines() == [res.line() for res in stubs]

    def test_json_rows_carry_details_and_csv_rows_do_not(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all", lambda: [acceptance.run_criterion(11)])
        code, out = run_cli(capsys, "suite")
        (row,) = json.loads(out)["results"]
        assert code == 0
        details = row["details"]
        assert details["predicted_bias"] == pytest.approx(0.0139, abs=1e-4)
        assert details["regularizer"] == 1e-3
        code, out = run_cli(capsys, "suite", "--format", "csv")
        assert out.splitlines()[0] == "check,criterion,deviation,tolerance,pass,runtime_s"


def _nan_on_call(monkeypatch, module, name, nth):
    """Make the nth call of module.name return its result times NaN."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(None)
        out = real(*args)
        return out * math.nan if len(calls) == nth else out

    monkeypatch.setattr(module, name, patched)


class TestNaNFails:
    # each NaN lands in a term after the first: the second family's node
    # values, the second commutator's safe-block deviation, and (three
    # blocks per trial) the second trial
    @pytest.mark.parametrize(
        "module, name, nth, argv",
        [
            (deformed, "family_values", 2, ["hermite", "--check", "orthonormality", "--max-degree", "3"]),
            (gl2.SectorOperator, "safe_deviation", 2, ["fock", "--l-max", "4", "--check", "ccr"]),
            (gl2, "rep_block", 5, ["rep", "--g", "1,1,0,1", "--L", "3", "--trials", "3"]),
        ],
        ids=["hermite-orthonormality", "fock-ccr", "rep-homomorphism"],
    )
    def test_nan_in_a_later_term_fails(self, capsys, monkeypatch, module, name, nth, argv):
        _nan_on_call(monkeypatch, module, name, nth)
        code, out = run_cli(capsys, *argv)
        (row,) = json.loads(out)["results"]
        assert math.isnan(row["deviation"])
        assert row["pass"] is False
        assert code == 1
