"""Command-line surface: formats, exit codes, determinism."""

from __future__ import annotations

import re

import pytest

from tgtkit.cli import build_parser, main
from tgtkit.disjunct import VERIFY_PAIR_CAP, generate, rows_thm5

from conftest import GOLDEN_OUTCOME, GOLDEN_TEXT


@pytest.fixture()
def golden_files(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text(GOLDEN_TEXT)
    outcome = tmp_path / "y.txt"
    outcome.write_text(GOLDEN_OUTCOME + "\n")
    return matrix, outcome


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecodeCommand:
    def test_golden_outputs(self, capsys, golden_files):
        matrix, outcome = golden_files
        expectations = {1: "1,2,4,5", 2: "1,2,3,5", 3: "2,3,5"}
        for alg, expected in expectations.items():
            code, out, _ = run(
                capsys, "decode", "--matrix", matrix, "--outcome", outcome,
                "--alg", alg, "--d", 4, "--ell", 0, "--u", 2, "--z", 1,
            )
            assert code == 0
            assert f"s_prime={expected}\n" in out
            assert "underdetermined=false" in out

    def test_underdetermined_instance(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        silent = tmp_path / "allneg.txt"
        silent.write_text("0" * 20 + "\n")
        code, out, _ = run(
            capsys, "decode", "--matrix", matrix, "--outcome", silent,
            "--alg", 1, "--d", 4, "--ell", 0, "--u", 2, "--z", 1,
        )
        assert code == 0
        assert "s_prime=\n" in out
        assert "underdetermined=true" in out

    def test_dimension_mismatch_is_validation_error(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        bad = tmp_path / "short.txt"
        bad.write_text("101\n")
        code, _, err = run(
            capsys, "decode", "--matrix", matrix, "--outcome", bad,
            "--alg", 1, "--d", 4, "--ell", 0, "--u", 2, "--z", 1,
        )
        assert code == 1
        assert "error:" in err


class TestEncodeCommand:
    def test_explicit_replay(self, capsys, golden_files):
        matrix, _ = golden_files
        code, out, _ = run(
            capsys, "encode", "--matrix", matrix, "--defectives", "1,2,4,5",
            "--ell", 0, "--u", 2, "--policy", "explicit",
            "--policy-rows", "2:1,5:0,6:1,9:0,10:1,11:1,14:0,15:1,18:0,20:0",
        )
        assert code == 0
        assert out == GOLDEN_OUTCOME + "\n"

    def test_outcome_file_output(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        out_path = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "encode", "--matrix", matrix, "--defectives", "",
            "--ell", 0, "--u", 2, "--policy", "always_negative",
            "--out", out_path,
        )
        assert code == 0
        assert out_path.read_text() == "0" * 20 + "\n"


    def test_duplicated_row_rejected(self, capsys, golden_files):
        matrix, _ = golden_files
        encode = ("encode", "--matrix", matrix, "--defectives", "1,2,4,5",
                  "--ell", 0, "--u", 2)
        code, out, err = run(capsys, *encode, "--policy", "explicit",
                             "--policy-rows", "2:1,2:0")
        assert (code, out) == (1, "")
        assert "--policy-rows lists row 2 twice" in err
        code, out, err = run(capsys, *encode, "--policy", "always_negative",
                             "--noise", "flip_rows", "--noise-rows", "4,4")
        assert (code, out) == (1, "")
        assert "--noise-rows lists row 4 twice" in err


class TestGenVerifyBounds:
    def test_gen_writes_parseable_matrix(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        code, stdout, _ = run(
            capsys, "gen", "--n", 12, "--d", 3, "--u", 2, "--z", 1,
            "--seed", 7, "--out", out,
        )
        assert code == 0
        assert stdout == "rows=1204 cols=12\n"
        assert out.read_text().startswith("1204 12\n")

    def test_gen_verified_reports_attempts(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        code, stdout, _ = run(
            capsys, "gen", "--n", 6, "--d", 4, "--u", 2, "--z", 1,
            "--seed", 3, "--verify", "--out", out,
        )
        assert code == 0
        assert "attempts=1" in stdout

    def test_gen_stdout_is_pipeable(self, capsys):
        # with --out - the matrix stream must stay clean (summary on stderr)
        code, stdout, err = run(
            capsys, "gen", "--n", 6, "--d", 4, "--u", 2, "--z", 1,
            "--seed", 7, "--rows", 10, "--out", "-",
        )
        assert code == 0
        assert stdout.startswith("10 6\n")
        from tgtkit import BinaryMatrix

        assert BinaryMatrix.parse(stdout).rows == 10
        assert err == "rows=10 cols=6\n"

    @pytest.mark.parametrize("variant", ["thm4", "thm5"])
    def test_gen_verify_rejects_variant(self, capsys, tmp_path, variant):
        # --verify always samples the thm4 row count, so a variant would be ignored
        out = tmp_path / "g.txt"
        code, stdout, err = run(
            capsys, "gen", "--n", 8, "--d", 2, "--u", 2, "--z", 1, "--seed", 1,
            "--verify", "--variant", variant, "--out", out,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: --variant cannot be combined with --verify")
        assert not out.exists()

    def test_gen_variant_sizes_the_sample(self, capsys):
        code, stdout, err = run(
            capsys, "gen", "--n", 10, "--d", 2, "--u", 2, "--z", 40, "--seed", 3,
            "--variant", "thm5",
        )
        assert code == 0
        assert err == f"rows={rows_thm5(10, 2, 2, 40, strict=False)} cols=10\n"
        assert stdout == generate(10, 2, 2, 40, 3, "thm5").to_text()

    def test_gen_feasibility_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "--n", 10**6, "--d", 18, "--u", 4, "--z", 3,
            "--seed", 0, "--out", tmp_path / "g.txt",
        )
        assert code == 2
        assert "error:" in err

    def test_verify_cap_default_is_the_library_cap(self):
        args = build_parser().parse_args(
            ["verify", "--matrix", "m.txt", "--d", "1", "--r", "1", "--z", "1"]
        )
        assert args.cap == VERIFY_PAIR_CAP

    def test_verify_pass_and_fail(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        code, out, _ = run(
            capsys, "verify", "--matrix", matrix, "--d", 4, "--r", 2, "--z", 1
        )
        assert code == 0 and out == "PASS\n"
        ones = tmp_path / "ones.txt"
        ones.write_text("3 3\n111\n111\n111\n")
        code, out, _ = run(
            capsys, "verify", "--matrix", ones, "--d", 1, "--r", 1, "--z", 1
        )
        assert code == 0
        assert out.splitlines() == [
            "FAIL", "ones_set=1", "zeros_set=2", "covered_rows=0",
        ]

    def test_verify_cap_below_one_is_exit_1(self, capsys, golden_files):
        matrix, _ = golden_files
        code, out, err = run(
            capsys, "verify", "--matrix", matrix, "--d", 1, "--r", 1, "--z", 1,
            "--cap", 0,
        )
        assert code == 1
        assert out == ""
        assert err == "error: pair_cap must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag", ["--policy-rows", "--noise-rows", "--ell"])
    def test_double_dash_flag_value_is_exit_1(self, capsys, golden_files, flag):
        matrix, _ = golden_files
        argv = {"--matrix": matrix, "--defectives": "1,2", "--ell": 0, "--u": 2,
                "--policy": "always_positive"}
        argv[flag] = "--"
        code, out, err = run(capsys, "encode", *(f"{k}={v}" for k, v in argv.items()))
        assert code == 1
        assert out == ""
        # before Python 3.12 argparse stores an empty list, which _Parser
        # rejects; later versions pass "--" on, to the flag's own reader
        assert err in (
            f"error: argument {flag}: '--' is not a value\n",
            {"--ell": "error: --ell must be an integer, got '--'\n",
             "--policy-rows": "error: bad --policy-rows entry '--'\n",
             "--noise-rows": "error: --noise-rows must be an integer, got '--'\n"}[flag],
        )

    def test_verify_n40_design_passes(self, capsys, tmp_path):
        # 57,575,700 (ones-set, zeros-set) pairs, about 110 s pair by pair
        matrix = tmp_path / "n40.txt"
        generate(40, 4, 2, 1, seed=0).save(matrix)
        code, out, _ = run(
            capsys, "verify", "--matrix", matrix, "--d", 4, "--r", 2, "--z", 1
        )
        assert code == 0 and out == "PASS\n"

    def test_bounds_output_with_na(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", 10**6, "--d", 18, "--u", 4,
                           "--z", 3)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rows_thm1=26331299"
        assert lines[1] == "rows_thm4=27532739"
        assert lines[2].startswith("rows_thm5=NA (")

    def test_bounds_precondition_na(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", 6, "--d", 4, "--u", 2, "--z", 1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rows_thm1=509"
        assert lines[1].startswith("rows_thm4=NA (")


class TestAnalysisCommands:
    def test_complexity(self, capsys):
        code, out, _ = run(
            capsys, "complexity", "--formula", "thm7", "--n", 100, "--d", 8,
            "--ell", 1, "--u", 4, "--z", 3,
        )
        assert code == 0
        assert "term_extension=0\n" in out

    def test_appendix_check(self, capsys):
        code, out, _ = run(capsys, "appendix-check", "--u", 2, "--n", 6)
        assert code == 0
        assert out.splitlines() == ["u=2 n=6", "lhs=216", "rhs=15", "holds=true"]

    def test_appendix_regime_error(self, capsys):
        code, _, err = run(capsys, "appendix-check", "--u", 2, "--n", 4)
        assert code == 1 and "threshold" in err


class TestSimulateAndExperiment:
    def test_simulate_bounds_stdout(self, capsys):
        code, out, _ = run(
            capsys, "simulate-bounds", "--out", "-", "--d-values", "20",
            "--z-values", "11", "--n-values", "1000000,100000000",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scheme,n,d,u,ell,z,rows,log10_rows"
        assert len(lines) == 5  # header + 2 schemes x 2 n
        assert lines[1].startswith("thm1,1000000,20,4,2,11,")

    def test_simulate_bounds_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys, "simulate-bounds", "--out", out, "--d-values", "20",
            "--z-values", "3", "--n-values", "1000000",
        )
        assert code == 0
        assert stdout == f"wrote 2 rows to {out}\n"
        assert out.read_text().count("\n") == 3

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--schemes", "error: sweep schemes must be non-empty\n"),
            ("--n-values", "error: sweep grid must be non-empty\n"),
            ("--d-values", "error: sweep grid must be non-empty\n"),
            ("--z-values", "error: sweep grid must be non-empty\n"),
        ],
    )
    def test_simulate_bounds_empty_input_is_exit_1(self, capsys, flag, message):
        code, out, err = run(capsys, "simulate-bounds", "--out", "-", flag, "")
        assert code == 1
        assert out == ""
        assert err == message

    def test_experiment_golden(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            f"matrix={matrix}\ndefectives=1,2,4,5\npolicy=explicit\n"
            "policy_rows=2:1,5:0,6:1,9:0,10:1,11:1,14:0,15:1,18:0,20:0\n"
            "verified=true\n"
        )
        code, out, _ = run(capsys, "experiment", "--spec", spec)
        assert code == 0
        assert "recovered=1,2,4,5" in out
        assert "pass_rate=1.0000" in out

    def test_experiment_defect_exit_code(self, capsys, tmp_path):
        ones = tmp_path / "ones.txt"
        ones.write_text("3 6\n" + "111111\n" * 3)
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            f"matrix={ones}\ndefectives=1,2\npolicy=always_negative\nverified=true\n"
        )
        code, out, err = run(capsys, "experiment", "--spec", spec)
        assert code == 3
        assert "DEFECT" in out
        assert "error:" in err

    def test_experiment_misspelled_verified_is_exit_1(self, capsys, tmp_path):
        ones = tmp_path / "ones.txt"
        ones.write_text("3 6\n" + "111111\n" * 3)
        spec = tmp_path / "spec.txt"
        body = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            f"matrix={ones}\ndefectives=1,2\npolicy=always_negative\n"
        )
        spec.write_text(body + "verified=ture\n")
        code, out, err = run(capsys, "experiment", "--spec", spec)
        assert code == 1
        assert out == ""
        assert "'verified'" in err and "'ture'" in err
        spec.write_text(body + "verified=TRUE\n")
        assert run(capsys, "experiment", "--spec", spec)[0] == 3


    @pytest.mark.parametrize(
        "noise, message",
        [
            ("noise=random_flips\nnoise_count=9\n", "cannot flip 9 rows in a 3-row matrix"),
            ("noise=flip_rows\nnoise_rows=4\n", "flip row 4 out of range 1..3"),
        ],
    )
    def test_experiment_noise_past_the_matrix_is_exit_1(self, capsys, tmp_path, noise, message):
        ones = tmp_path / "ones.txt"
        ones.write_text("3 6\n" + "111111\n" * 3)
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=0\nseed=0\n"
            f"matrix={ones}\ndefectives=1,2\npolicy=always_negative\n{noise}"
        )
        code, out, err = run(capsys, "experiment", "--spec", spec)
        assert code == 1
        assert out == ""
        assert message in err


class TestFileErrors:
    @pytest.mark.parametrize(
        "command, flag, what",
        [("verify", "--matrix", "matrix"), ("experiment", "--spec", "spec")],
    )
    def test_non_ascii_file_is_exit_1(self, capsys, tmp_path, command, flag, what):
        # a UnicodeDecodeError traceback before
        path = tmp_path / "caf\u00e9.txt"
        path.write_text("n=6 \u00e9\n", encoding="utf-8")
        extra = ("--d", 2, "--r", 1, "--z", 1) if command == "verify" else ()
        code, out, err = run(capsys, command, flag, path, *extra)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {what} file {path}: 'ascii' codec can't decode")

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("gen", "--n", 6, "--d", 4, "--u", 2, "--z", 1, "--seed", 0), "matrix"),
            (("simulate-bounds", "--d-values", "20", "--z-values", "3",
              "--n-values", "1000000"), "CSV"),
        ],
        ids=["gen", "simulate-bounds"],
    )
    def test_unwritable_out_is_exit_1(self, capsys, tmp_path, argv, what):
        # a FileNotFoundError traceback before
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {what} file {path}: [Errno 2] ")
        assert not path.parent.exists()

    def test_unwritable_outcome_is_exit_1(self, capsys, golden_files, tmp_path):
        matrix, _ = golden_files
        path = tmp_path / "missing" / "y.txt"
        code, out, err = run(
            capsys, "encode", "--matrix", matrix, "--defectives", "1,2", "--ell", 0,
            "--u", 2, "--policy", "always_negative", "--out", path,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write outcome file {path}: [Errno 2] ")


class TestArgumentErrors:
    def test_bad_flag_value_is_exit_1(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "ten", "--d", 4, "--u", 2,
                           "--z", 1)
        assert code == 1

    def test_missing_subcommand_is_exit_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1


# subcommand -> every flag it declares
FLAGS = {
    "gen": "--n --d --u --z --seed --rows --max-attempts --variant --verify --out",
    "verify": "--matrix --d --r --z --cap",
    "bounds": "--n --d --u --z",
    "encode": "--matrix --defectives --ell --u --policy-seed --noise-count --noise-seed "
              "--policy --bernoulli-p --policy-rows --noise --noise-rows --out",
    "decode": "--matrix --outcome --alg --d --ell --u --z",
    "complexity": "--formula --n --d --ell --u --z --s-size",
    "appendix-check": "--u --n",
    "simulate-bounds": "--out --n-values --d-values --z-values --schemes",
    "experiment": "--spec",
}


def test_every_subcommand_names_its_flags_in_help(capsys):
    # argparse formats help only when asked, so a bad declaration shows only here
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0] == ",".join(FLAGS)
    for command, flags in FLAGS.items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        named = re.findall(r"^  (--[a-z-]+)", options, re.MULTILINE)
        assert sorted(named) == sorted(flags.split()), command
