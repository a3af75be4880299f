"""The case runner of the verification suites: a skip never counts as a pass,
an error fails its case under its own name, and `verify` exits on both."""

import pytest

from symflow import verification
from symflow.cli import main
from symflow.errors import IdentityViolation
from symflow.verification import SuiteReport


def _raises():
    raise IdentityViolation("left side 1 != right side 0")


def _checks(labels, cases):
    rep = SuiteReport("fake", "a suite for the runner")
    rep.run(labels, cases)
    return rep


def test_clean_run_prints_the_old_line():
    rep = _checks("identity", [lambda: True, lambda: 1])
    assert rep.ok
    assert rep.lines() == ["suite fake: a suite for the runner", "  [pass] identity: 2/2"]


def test_raising_case_fails_with_its_error_name():
    rep = _checks("identity", [lambda: True, _raises, _raises])
    (check,) = rep.checks
    assert (check.passed, check.total, check.skipped) == (1, 3, 0)
    assert not rep.ok
    assert rep.lines()[1] == ("  [FAIL] identity: 1/3  (first error IdentityViolation: "
                              "left side 1 != right side 0)")


def test_raise_fails_every_label_of_its_case():
    rep = _checks(("first", "second"), [lambda: (True, False), _raises])
    first, second = rep.checks
    assert (first.passed, first.total) == (1, 2)
    assert (second.passed, second.total) == (0, 2)
    assert first.reasons == second.reasons == ["IdentityViolation: left side 1 != right side 0"]


def test_skip_is_never_a_pass():
    rep = _checks(("a", "b"), [lambda: (True, True), lambda: None, lambda: (False, True)])
    a, b = rep.checks
    assert (a.passed, a.total, a.skipped) == (1, 2, 1)
    assert (b.passed, b.total, b.skipped) == (2, 2, 1)
    assert not a.ok and b.ok
    assert rep.lines()[2] == "  [pass] b: 2/2  (1 skipped)"


def test_all_skipped_is_a_failure():
    rep = _checks("vacuous", [lambda: None] * 3)
    assert not rep.ok
    assert rep.lines()[1] == "  [FAIL] vacuous: 0/0  (3 skipped)"


def test_detail_skips_and_error_share_one_bracket():
    rep = _checks("x", [lambda: None, _raises])
    rep.checks[0].detail = "seen: [0]"
    assert rep.lines()[1] == ("  [FAIL] x: 0/1  (seen: [0]; 1 skipped; first error "
                              "IdentityViolation: left side 1 != right side 0)")


def _fake_suite(rep, rng, count=3):
    rep.run("draws then raises", [lambda: rng.random() > 2 or _raises()] * count)


def test_verify_reports_a_raising_suite(monkeypatch, capsys):
    monkeypatch.setitem(verification.SUITES, "fake", (99, "always raises", _fake_suite))
    assert main(["verify", "fake", "--count", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["suite fake: always raises",
                       "  [FAIL] draws then raises: 0/2  (first error IdentityViolation: "
                       "left side 1 != right side 0)"]
    assert out[-1] == "result: FAILURES PRESENT (seed 0)"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_must_be_positive(monkeypatch, count):
    def never_run(rep, rng, count=3):
        pytest.fail("suite ran with a count below 1")

    monkeypatch.setitem(verification.SUITES, "fake", (99, "never runs", never_run))
    assert main(["verify", "fake", "--count", count]) == 2
