"""The integer rule: each public call rejects a non-int integer argument
(a bool, a float or a string) with the same message, before it is used, and
each integer read from text (CLI flags, spec keys, item and row lists) is an
optional ``-`` and ASCII digits, or fails with that message."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    Family,
    GapPolicy,
    ItemSet,
    NoiseSpec,
    OutcomeVector,
    ValidationError,
    appendix_gap_check,
    check_consistency,
    complexity,
    encode,
    generate,
    generate_verified,
    is_u_complete,
    w_bound,
)
from tgtkit.cli import main
from tgtkit.errors import _parse_int
from tgtkit.simulate import ExperimentSpec

from conftest import GOLDEN_DEFECTIVES, GOLDEN_TEXT


def _encode(golden_matrix, ell=0, u=2):
    return encode(golden_matrix, ItemSet.of(GOLDEN_DEFECTIVES), ell, u,
                  GapPolicy.always_negative())


def _check_consistency(golden_matrix, ell=0, u=2):
    outcome = OutcomeVector(golden_matrix.rows, 0)
    return check_consistency(golden_matrix, ItemSet.of(GOLDEN_DEFECTIVES), outcome, ell, u)


# call -> (name in the message, an int it takes, the call with that argument)
CALLS = {
    "encode-ell": ("ell", 1, lambda m, v: _encode(m, ell=v)),
    "encode-u": ("u", 3, lambda m, v: _encode(m, u=v)),
    "check_consistency-ell": ("ell", 1, lambda m, v: _check_consistency(m, ell=v)),
    "check_consistency-u": ("u", 3, lambda m, v: _check_consistency(m, u=v)),
    "generate-seed": ("seed", 1, lambda m, v: generate(8, 3, 2, 1, v, rows=5)),
    "generate_verified-seed": ("seed", 3, lambda m, v: generate_verified(6, 4, 2, 1, v)),
    "flipped-rows": ("flip row", 1, lambda m, v: OutcomeVector(4, 0).flipped([v])),
    "entry-row": ("row", 1, lambda m, v: m.entry(v, 1)),
    "entry-col": ("col", 1, lambda m, v: m.entry(1, v)),
    "row_support-row": ("row", 1, lambda m, v: m.row_support(v)),
    "column_weight-col": ("col", 1, lambda m, v: m.column_weight(v)),
    "from_mask-mask": ("item mask", 1, lambda m, v: ItemSet.from_mask(v)),
    "to_mask-n": ("n", 1, lambda m, v: ItemSet.of([1]).to_mask(v)),
    "w_bound-s_size": ("s_size", 4, lambda m, v: w_bound(v, 0, 2, 1)),
    "w_bound-ell": ("ell", 0, lambda m, v: w_bound(4, v, 2, 1)),
    "w_bound-u": ("u", 2, lambda m, v: w_bound(4, 0, v, 1)),
    "w_bound-g": ("g", 1, lambda m, v: w_bound(4, 0, 2, v)),
    "complexity-s_size": ("s_size", 2, lambda m, v: complexity("thm8", 100, 10, 1, 3, 3, v)),
    "appendix_gap_check-u": ("u", 2, lambda m, v: appendix_gap_check(v, 50)),
    "appendix_gap_check-n": ("n", 50, lambda m, v: appendix_gap_check(2, v)),
    "BinaryMatrix-rows": ("rows", 1, lambda m, v: BinaryMatrix(v, 3, (1,))),
    "BinaryMatrix-cols": ("cols", 3, lambda m, v: BinaryMatrix(1, v, (1,))),
    "BinaryMatrix-row_masks": ("row 1 mask", 1, lambda m, v: BinaryMatrix(1, 3, (v,))),
    "Family-u": ("u", 2, lambda m, v: Family(v, ((1, 2),))),
    "Family-edges": ("edge item", 1, lambda m, v: Family(2, ((v, 2),))),
    "is_u_complete-items": ("item", 1, lambda m, v: is_u_complete(Family(2, ((1, 2),)), [v, 2])),
}


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize("name, ok, call", CALLS.values(), ids=CALLS)
def test_integer_arguments_are_checked_at_the_call(golden_matrix, name, ok, call, value):
    # each of these ran True as 1, or failed later with a raw TypeError
    message = f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(golden_matrix, value)
    call(golden_matrix, ok)


# more digits than int() reads from text here (0: no limit, before 3.10.7)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# int() took the first three; "" is an empty value or list entry; int() raises
# ValueError on the last, which passed the ASCII-digit test
BAD_TEXTS = ["1_0", "+3", "\u0663", "0x10", "1e3", "", pytest.param(
    "9" * (INT_DIGIT_LIMIT + 1), id="too-many-digits",
    marks=pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads any length"),
)]

SPEC = ("n=6\nd=4\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=0\nseed=0\ngenerate=thm4\n"
        "defectives=1,2\n")


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_TEXT)
    return path


def _spec_error(**settings):
    """The error of ``SPEC`` with each ``key=value`` of ``settings`` set."""
    lines = dict(line.split("=", 1) for line in SPEC.splitlines())
    text = "".join(f"{k}={v}\n" for k, v in {**lines, **settings}.items())
    return _library_error(lambda: ExperimentSpec.parse(text))


def _cli_error(capsys, *argv):
    """The ``error:`` line of a CLI run that must exit 1."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    return captured.err[len("error: "):-1]


def _encode_error(capsys, matrix_file, *argv):
    """The error of a valid ``encode`` run with ``argv`` added (a flag given
    twice takes its last value)."""
    return _cli_error(capsys, "encode", "--matrix", matrix_file, "--defectives", "1,2",
                      "--ell", 0, "--u", 2, "--policy", "always_negative", *argv)


def _library_error(call):
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


def _rows_message(label, empty):
    """The message of a row list whose bad number is ``text``: an empty one
    leaves the entry ``empty``, which keeps "bad LABEL entry" (wrong shape)."""
    return lambda t: f"{label} must be an integer, got {t!r}" if t else (
        f"bad {label} entry {empty!r}")


# text surface -> (its error for a bad text, the message it must give)
SURFACES = {
    "cli --n": (
        lambda c, m, t: _cli_error(c, "bounds", "--n", t, "--d", 4, "--u", 2, "--z", 3),
        lambda t: f"--n must be an integer, got {t!r}",
    ),
    "cli --noise-seed": (
        lambda c, m, t: _encode_error(c, m, "--noise-seed", t),
        lambda t: f"--noise-seed must be an integer, got {t!r}",
    ),
    "spec n=": (lambda c, m, t: _spec_error(n=t), lambda t: f"n must be an integer, got {t!r}"),
    "spec seed=": (
        lambda c, m, t: _spec_error(seed=t),
        lambda t: f"seed must be an integer, got {t!r}",
    ),
    "ItemSet.parse": (
        lambda c, m, t: _library_error(lambda: ItemSet.parse(f"1,{t},2")),
        lambda t: f"item index must be an integer, got {t!r}",
    ),
    "cli --defectives": (
        lambda c, m, t: _encode_error(c, m, "--defectives", f"1,{t},2"),
        lambda t: f"item index must be an integer, got {t!r}",
    ),
    "spec defectives=": (
        lambda c, m, t: _spec_error(defectives=f"1,{t},2"),
        lambda t: f"item index must be an integer, got {t!r}",
    ),
    "cli --policy-rows": (
        lambda c, m, t: _encode_error(c, m, "--policy-rows", f"2:1,{t}:0"),
        _rows_message("--policy-rows", ":0"),
    ),
    "spec policy_rows= bit": (
        lambda c, m, t: _spec_error(policy_rows=f"2:1,3:{t}"),
        _rows_message("policy_rows", "3:"),
    ),
    "cli --noise-rows": (
        lambda c, m, t: _encode_error(c, m, "--noise-rows", f"1,{t}"),
        _rows_message("--noise-rows", ""),
    ),
    "spec noise_rows=": (
        lambda c, m, t: _spec_error(noise_rows=f"1,{t}"),
        _rows_message("noise_rows", ""),
    ),
    "cli --n-values": (
        lambda c, m, t: _cli_error(c, "simulate-bounds", "--out", "-",
                                   "--n-values", f"1000,{t},2000"),
        lambda t: f"--n-values must be an integer, got {t!r}",
    ),
}


@pytest.mark.parametrize("text", BAD_TEXTS)
@pytest.mark.parametrize("error, message", SURFACES.values(), ids=SURFACES)
def test_integer_text_is_read_by_one_rule(capsys, matrix_file, error, message, text):
    # each was read by int() (or skipped, for an empty sweep entry) before
    assert error(capsys, matrix_file, text) == message(text)


@pytest.mark.parametrize("text", ["0_0.5", "\u0660.\u0665", "+0.5", "inf", "nan", "0x1", ""])
def test_bernoulli_p_text_is_read_by_one_rule(capsys, matrix_file, text):
    # float() took the first three (and inf/nan, refused later by the range check)
    assert _encode_error(capsys, matrix_file, "--bernoulli-p", text) == (
        f"--bernoulli-p must be a real number, got {text!r}")
    assert _spec_error(bernoulli_p=text) == f"bernoulli_p must be a real number, got {text!r}"


@pytest.mark.parametrize("text, p", [("0.25", 0.25), (" .5 ", 0.5), ("1.", 1.0), ("25e-2", 0.25)])
def test_bernoulli_p_decimal_forms(text, p):
    spec = ExperimentSpec.parse(SPEC + f"policy=bernoulli\nbernoulli_p={text}\n")
    assert spec.policy.p == p


@given(st.one_of(st.text(), st.text("-+_ 0123456789\t\u0663\xa0xe", max_size=8)))
def test_parse_int_is_an_optional_minus_and_ascii_digits(text):
    stripped = text.strip(" \t\n\r\x0b\x0c")  # ASCII whitespace only
    if re.fullmatch(r"-?[0-9]+", stripped):
        assert _parse_int("k", text) == int(stripped)
    else:
        message = f"^k must be an integer, got {re.escape(repr(text))}$"
        with pytest.raises(ValidationError, match=message):
            _parse_int("k", text)


def test_forms_that_keep_working(capsys):
    assert GapPolicy.from_settings("explicit", rows_text="5:0, 2:1") == (
        GapPolicy.explicit({2: 1, 5: 0}))
    assert ItemSet.parse(" 007 ,2") == ItemSet.of([2, 7])
    # text blank in ASCII is an empty list
    assert ItemSet.parse(" \t") == ItemSet.of([])
    assert GapPolicy.from_settings("explicit", rows_text=" \t").overrides == ()
    assert NoiseSpec.from_settings("flip_rows", " \t").rows == ()
    # seed=007 parses; trials=-1 parses, and the range is the library's
    assert _spec_error(seed="007", trials="-1") == "trials must be >= 0, got -1"
    with pytest.raises(ValidationError, match="^noise_rows row -1 is not 1-based$"):
        NoiseSpec.from_settings("flip_rows", "2, -1", label="noise_rows")

    def bounds(n):
        assert main(["bounds", "--n", n, "--d", "4", "--u", "2", "--z", "3"]) == 0
        return capsys.readouterr().out

    assert bounds("0100") == bounds(" 100\t") == bounds("100") != ""


@pytest.mark.parametrize("flag, message", [
    ("--defectives", "item index must be an integer, got '\\xa0'"),
    ("--policy-rows", "bad --policy-rows entry '\\xa0'"),  # no ":bit"
    ("--noise-rows", "--noise-rows must be an integer, got '\\xa0'"),
])
def test_list_text_is_blank_only_in_ascii(capsys, matrix_file, flag, message):
    # a list of only non-ASCII whitespace was no rows for the two row lists
    assert _encode_error(capsys, matrix_file, flag, "\xa0") == message


@pytest.mark.parametrize("schemes, entry", [
    ("thm1,,thm4", ""), ("thm1,thm4,", ""), ("thm1, \t", ""), ("thm1,\xa0", "\xa0"),
])
def test_scheme_list_keeps_its_empty_entries(capsys, schemes, entry):
    # each was read as "thm1,thm4" (or "thm1") before
    error = _cli_error(capsys, "simulate-bounds", "--out", "-", "--schemes", schemes)
    assert error.startswith(f"unknown scheme {entry!r} (expected ")


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads any length")
@pytest.mark.parametrize("head", [
    "{big} 1", "1 {big}",  # the one-pass path for "t n" over a canonical body
    "{big}  1", " 1 {big}",  # the line-by-line path
])
def test_matrix_header_with_too_many_digits(capsys, tmp_path, head):
    # int() raised ValueError on these, which passed the ASCII-digit test
    text = head.format(big="9" * (INT_DIGIT_LIMIT + 1)) + "\n1\n"
    message = 'matrix header must be "t n" with integers'
    assert _library_error(lambda: BinaryMatrix.parse(text)) == message
    path = tmp_path / "big.txt"
    path.write_text(text)
    assert _cli_error(capsys, "verify", "--matrix", path, "--d", 1, "--r", 1, "--z", 1) == message
