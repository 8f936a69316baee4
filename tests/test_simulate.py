"""Bound-comparison sweep and the end-to-end experiment runner."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    EnvelopeDefectError,
    ExperimentSpec,
    GapPolicy,
    ItemSet,
    NoiseSpec,
    OutcomeVector,
    SweepSpec,
    ValidationError,
    decode,
    encode,
    rows_thm1,
    rows_thm4,
    rows_thm5,
    run_experiment,
    simulate_bounds,
    sweep_to_csv,
)
from tgtkit.cli import main
from tgtkit.simulate import ell_rule, u_rule

from conftest import GOLDEN_TEXT


class TestRules:
    def test_threshold_rules_round_half_up(self):
        assert (u_rule(20), ell_rule(20)) == (4, 2)
        assert (u_rule(100), ell_rule(100)) == (20, 10)
        assert (u_rule(1000), ell_rule(1000)) == (200, 100)
        assert (u_rule(22), ell_rule(22)) == (4, 2)  # 4.4 and 2.2 round down
        assert (u_rule(23), ell_rule(23)) == (5, 2)  # 4.6 up, 2.3 down


class TestSimulateBounds:
    def test_small_figure_grid_shape(self):
        spec = SweepSpec(d_values=(20,), schemes=("thm1", "thm4"))
        rows = simulate_bounds(spec)
        assert len(rows) == 30  # 2 schemes x 5 n x 3 z
        assert [r.scheme for r in rows[:15]] == ["thm1"] * 15
        # sorted by scheme, then n, d, z
        keys = [(r.scheme, r.n, r.d, r.z) for r in rows]
        assert keys == sorted(keys)

    def test_rows_match_recomputed_bounds(self):
        spec = SweepSpec(
            n_values=(10**6, 10**8), d_values=(20,), z_values=(11,),
            schemes=("thm1", "thm4", "thm5"),
        )
        fns = {"thm1": rows_thm1, "thm4": rows_thm4, "thm5": rows_thm5}
        for row in simulate_bounds(spec):
            expected = fns[row.scheme](row.n, row.d - row.ell, row.u, row.z)
            assert row.rows == expected
            assert row.log10_rows == pytest.approx(math.log10(expected))

    def test_log_rows_increase_with_n(self):
        spec = SweepSpec(schemes=("thm1", "thm4"))
        rows = simulate_bounds(spec)
        series: dict[tuple, list] = {}
        for r in rows:
            series.setdefault((r.scheme, r.d, r.z), []).append((r.n, r.log10_rows))
        for key, points in series.items():
            ordered = [v for _, v in sorted(points)]
            assert all(a < b for a, b in zip(ordered, ordered[1:])), key

    def test_inadmissible_points_become_na_rows(self):
        spec = SweepSpec(
            n_values=(10**6,), d_values=(20,), z_values=(3, 11), schemes=("thm5",)
        )
        rows = simulate_bounds(spec)
        assert rows[0].z == 3 and rows[0].rows is None
        assert "threshold" in rows[0].note
        assert rows[1].z == 11 and rows[1].rows is not None
        csv_text = sweep_to_csv(rows)
        assert "NA (" in csv_text

    def test_csv_deterministic(self):
        spec = SweepSpec(d_values=(20, 100), schemes=("thm1", "thm4", "thm5"))
        assert sweep_to_csv(simulate_bounds(spec)) == sweep_to_csv(
            simulate_bounds(spec)
        )

    def test_csv_header_and_fields(self):
        spec = SweepSpec(
            n_values=(10**6,), d_values=(20,), z_values=(11,), schemes=("thm4",)
        )
        text = sweep_to_csv(simulate_bounds(spec))
        lines = text.splitlines()
        assert lines[0] == "scheme,n,d,u,ell,z,rows,log10_rows"
        fields = lines[1].split(",")
        assert fields[:6] == ["thm4", "1000000", "20", "4", "2", "11"]
        assert int(fields[6]) == rows_thm4(10**6, 18, 4, 11)

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec(schemes=("thm2",))

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValidationError, match="^sweep schemes must be non-empty$"):
            SweepSpec(schemes=())

    def test_wide_grid_digest(self):
        # every scheme over 630 points, 120 of them NA rows; the digest pins
        # each row count and each precondition message to the last bit
        spec = SweepSpec(
            d_values=(5, 10, 20, 50, 100, 1000),
            z_values=(1, 3, 7, 11, 31, 101, 1001),
            schemes=("thm1", "thm4", "thm5"),
        )
        rows = simulate_bounds(spec)
        assert len(rows) == 630
        assert sum(r.rows is None for r in rows) == 120
        digest = hashlib.sha256(sweep_to_csv(rows).encode()).hexdigest()
        assert digest == "737028e8950d5326b0935fcc91a48d886b17c41ffba85695d2d818c9003f01f5"


GOLDEN_SPEC = """\
# golden replay
n=6
d=4
ell=0
u=2
z=1
algorithm=1
trials=1
seed=0
matrix={matrix}
defectives=1,2,4,5
policy=explicit
policy_rows=2:1,5:0,6:1,9:0,10:1,11:1,14:0,15:1,18:0,20:0
verified=true
"""


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN_TEXT)
    return path


class TestExperimentSpec:
    def test_parse_round_trip(self, tmp_path, golden_file):
        spec = ExperimentSpec.parse(GOLDEN_SPEC.format(matrix=golden_file))
        assert spec.params.n == 6 and spec.algorithm == 1
        assert spec.defectives.members == (1, 2, 4, 5)
        assert spec.policy.kind == "explicit"
        assert spec.verified

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown spec key"):
            ExperimentSpec.parse("n=6\nbogus=1\n")

    def test_must_choose_matrix_source(self):
        base = "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\ndefectives=1\n"
        with pytest.raises(ValidationError, match="matrix"):
            ExperimentSpec.parse(base)

    def test_must_choose_defectives_source(self):
        base = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            "generate=thm4\n"
        )
        with pytest.raises(ValidationError, match="defectives"):
            ExperimentSpec.parse(base)

    def test_bad_bernoulli_p_rejected(self):
        base = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            "generate=thm4\ndefectives=1,2\nbernoulli_p=lots\n"
        )
        with pytest.raises(ValidationError, match="bernoulli_p"):
            ExperimentSpec.parse(base)


    def test_duplicated_policy_row_rejected(self, golden_file):
        text = GOLDEN_SPEC.format(matrix=golden_file).replace(
            "policy_rows=2:1,", "policy_rows=2:1,2:0,"
        )
        with pytest.raises(ValidationError, match="policy_rows lists row 2 twice"):
            ExperimentSpec.parse(text)

    @pytest.mark.parametrize(
        "settings_text, message",
        [
            ("defectives=1,2\npolicy=bernoulli\nbernoulli_p=2\n", "bernoulli p"),
            ("defectives=1,2\nnoise=random_flips\nnoise_count=-1\n", "non-negative"),
            ("defectives=1,2\npolicy=explicit\npolicy_rows=1:7\n", "row 1 must be 0/1"),
            ("s_size=2\npolicy=explicit\npolicy_rows=1:1\n", "needs defectives="),
            ("defectives=1,2\nmax_attempts=-5\n", r"max_attempts must be >= 1, got -5"),
            ("defectives=1,2\nmax_attempts=0\n", r"max_attempts must be >= 1, got 0"),
            ("defectives=1,2\nrows=-3\n", r"rows must be >= 1, got -3"),
            ("defectives=1,2\nrows=0\n", r"rows must be >= 1, got 0"),
            ("defectives=1,2\nverified=ture\n", "spec key 'verified' must be one of"),
            ("defectives=1,2\nverified=\n", "spec key 'verified' must be one of"),
        ],
    )
    def test_bad_policy_or_noise_fails_at_parse(self, settings_text, message):
        # trials=0: nothing runs, so only parsing can catch these
        base = "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=0\nseed=0\ngenerate=thm4\n"
        with pytest.raises(ValidationError, match=message):
            ExperimentSpec.parse(base + settings_text)

    @pytest.mark.parametrize("kind", ["thm4", "thm5", "verified"])
    def test_generation_settings_checked_for_every_kind(self, kind):
        base = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=0\nseed=0\n"
            f"generate={kind}\ndefectives=1,2\n"
        )
        with pytest.raises(ValidationError, match="max_attempts must be >= 1"):
            ExperimentSpec.parse(base + "max_attempts=0\n")
        with pytest.raises(ValidationError, match="rows must be >= 1"):
            ExperimentSpec.parse(base + "rows=-3\n")
        spec = ExperimentSpec.parse(base + "rows=7\nmax_attempts=1\n")
        assert (spec.rows_override, spec.max_attempts) == (7, 1)

    @pytest.mark.parametrize(
        "d, kind, message",
        [
            (2, "thm5", "z=1 is below the admissible threshold 4/beta^2 + 1 = 7.2014"),
            (7, "thm4", "need d + u <= n, got d=7 u=2 n=8"),
            (7, "verified", "need d + u <= n, got d=7 u=2 n=8"),
        ],
    )
    def test_generation_bounds_checked_at_parse(self, d, kind, message):
        # trials=0: nothing runs, so only parsing can catch these
        base = (
            f"n=8\nd={d}\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=0\nseed=0\n"
            f"generate={kind}\ns_size=2\n"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.parse(base)
        if kind == "thm4":  # a row override skips the calculator, not n
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                ExperimentSpec.parse(base + "rows=30\n")

    def test_rows_override_runs_below_the_thm5_threshold(self):
        spec = ExperimentSpec.parse(
            "n=8\nd=2\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=2\nseed=0\n"
            "generate=thm5\ns_size=2\nrows=30\n"
        )
        assert run_experiment(spec).matrix_rows == 30

    def test_rows_with_matrix_file_rejected(self, golden_file):
        text = GOLDEN_SPEC.format(matrix=golden_file) + "rows=50\n"
        with pytest.raises(ValidationError, match="rows= needs generate="):
            ExperimentSpec.parse(text)

    @pytest.mark.parametrize(
        "value, expected",
        [("true", True), ("TRUE", True), ("Yes", True), ("1", True),
         ("false", False), ("No", False), ("0", False), ("FALSE", False)],
    )
    def test_verified_values(self, golden_file, value, expected):
        text = GOLDEN_SPEC.format(matrix=golden_file).replace(
            "verified=true", f"verified={value}"
        )
        assert ExperimentSpec.parse(text).verified is expected
        generated = text.replace(f"matrix={golden_file}", "generate=verified")
        assert ExperimentSpec.parse(generated).verified is True

    def test_readme_example_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text[text.index("### File formats"):]
        block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
        spec = ExperimentSpec.parse(block)
        assert spec.params.n == 12 and spec.s_size == 3
        assert spec.policy == GapPolicy.bernoulli()


_ROWS_TEXT = st.one_of(
    st.lists(st.tuples(st.integers(-1, 22), st.integers(-1, 2)), max_size=5).map(
        lambda pairs: ",".join(f"{row}:{bit}" for row, bit in pairs)
    ),
    st.lists(st.integers(-1, 22), max_size=5).map(lambda rows: ",".join(map(str, rows))),
    st.text(alphabet="0123456789:, x-", max_size=8),
)

_POLICY_AND_NOISE = st.fixed_dictionaries(
    {"policy": st.sampled_from(GapPolicy.KINDS + ("sometimes",))},
    optional={
        "bernoulli_p": st.one_of(
            st.floats(-0.5, 1.5).map(str), st.sampled_from(["nan", "inf", "lots", ""])
        ),
        "policy_rows": _ROWS_TEXT,
        "noise": st.sampled_from(NoiseSpec.KINDS + ("loud",)),
        "noise_rows": _ROWS_TEXT,
        "noise_count": st.one_of(
            st.integers(-3, 30).map(str), st.sampled_from(["x", ""])
        ),
    },
)


@pytest.fixture(scope="module")
def golden_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "golden.txt"
    path.write_text(GOLDEN_TEXT)
    return path


@settings(max_examples=200, deadline=None)
@given(_POLICY_AND_NOISE)
def test_spec_and_cli_build_the_same_policy_and_noise(golden_path, values):
    text = (
        "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
        f"matrix={golden_path}\ndefectives=1,2,4,5\n"
        + "".join(f"{key}={value}\n" for key, value in values.items())
    )
    try:
        spec = ExperimentSpec.parse(text)
    except ValidationError:
        spec = None

    built = []

    def fake_encode(matrix, defectives, ell, u, policy, noise):
        built.append((policy, noise))
        return OutcomeVector.from_bits((0,) * matrix.rows)

    argv = ["encode", "--matrix", str(golden_path), "--defectives", "1,2,4,5",
            "--ell", "0", "--u", "2"]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    with mock.patch("tgtkit.cli.encode", fake_encode), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)

    if spec is None:
        assert (code, built) == (1, [])
    else:
        assert code == 0
        assert built == [(spec.policy, spec.noise)]


class TestRunExperiment:
    def test_golden_replay(self, golden_file):
        spec = ExperimentSpec.parse(GOLDEN_SPEC.format(matrix=golden_file))
        report = run_experiment(spec)
        assert report.passes == 1 and report.failures == 0
        assert report.trials[0].recovered.members == (1, 2, 4, 5)
        assert not report.defect
        text = report.to_text()
        assert "pass_rate=1.0000" in text

    def test_zero_trials_empty_report(self, golden_file):
        spec = ExperimentSpec.parse(
            GOLDEN_SPEC.format(matrix=golden_file).replace("trials=1", "trials=0")
        )
        report = run_experiment(spec)
        assert report.trials == ()
        assert "trials=0 pass=0" in report.to_text()

    def test_deterministic(self, golden_file):
        spec = ExperimentSpec.parse(GOLDEN_SPEC.format(matrix=golden_file))
        assert run_experiment(spec).to_text() == run_experiment(spec).to_text()

    def test_trials_replay_from_derived_seeds(self, golden_file):
        # each trial draws sample, policy and noise seeds from seed, in that
        # order, and runs the spec's policy and noise under those seeds
        text = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=12\nseed=8\n"
            f"matrix={golden_file}\ns_size=3\npolicy=bernoulli\nbernoulli_p=0.3\n"
            "noise=random_flips\nnoise_count=2\n"
        )
        spec = ExperimentSpec.parse(text)
        matrix = BinaryMatrix.parse(GOLDEN_TEXT)
        master = random.Random(8)
        for trial in run_experiment(spec).trials:
            sample_seed, policy_seed, noise_seed = (master.randrange(2**32) for _ in range(3))
            picked = random.Random(sample_seed).sample(range(1, 7), 3)
            outcome = encode(
                matrix, ItemSet.of(picked), 0, 2, GapPolicy.bernoulli(0.3, seed=policy_seed),
                NoiseSpec.random_flips(2, seed=noise_seed),
            )
            assert trial.defectives == ItemSet.of(picked)
            assert trial.recovered == decode(outcome, matrix, spec.params, 1).recovered

    def test_monte_carlo_on_verified_matrix(self):
        # fresh verified design each run; random defective sets; random gaps
        text = (
            "n=12\nd=3\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=500\nseed=21\n"
            "generate=verified\nmax_attempts=20\ns_size=3\npolicy=bernoulli\n"
        )
        report = run_experiment(ExperimentSpec.parse(text))
        assert report.failures == 0
        assert report.passes == 500
        assert not report.defect

    def test_defect_flag_on_false_verified_claim(self, tmp_path):
        # an all-ones matrix is nowhere near disjunct: with u <= |S| every
        # pool is positive, the family is complete, and decoding overshoots
        path = tmp_path / "ones.txt"
        path.write_text("3 6\n" + "111111\n" * 3)
        text = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            f"matrix={path}\ndefectives=1,2\npolicy=always_negative\nverified=true\n"
        )
        report = run_experiment(ExperimentSpec.parse(text))
        assert report.failures == 1
        assert report.defect

    def test_out_of_model_trials_are_skipped(self, golden_file):
        text = (
            "n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=1\nseed=0\n"
            f"matrix={golden_file}\ndefectives=1\npolicy=always_negative\n"
        )
        report = run_experiment(ExperimentSpec.parse(text))
        assert report.skipped == 1
        assert report.passes == report.failures == 0
