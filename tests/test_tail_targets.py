"""The tail map's closed-form targets and the streamed fixed-point scan.

The stock witness serves target(n) = 2n(n+1) + 1 in closed form.  These
tests hold that form to the gallop over the certified Fraction bounds,
show that a wrong form is caught wherever targets are served or checked
(at construction, in the scan's sample, in ``spot_check_witness`` and
through the CLI), and pin the scan's sample and its ``MAX_SCAN`` cap
without running the refused work.
"""

import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kannanlab import cli
from kannanlab.cli import main
from kannanlab.completeness import (MAX_SCAN, ConstructedMap, _least_index,
                                    build_reciprocal_witness,
                                    construct_counterexample_map,
                                    scan_fixed_point_free, spot_check_witness)
from kannanlab.spaces import TheoremContradictionError

STOCK = build_reciprocal_witness()


def galloped_target(w, n0):
    """The least admissible index, galloped over the certified bounds."""
    half_gap = w.gap_lower_bound(n0) / 2
    return _least_index(lambda n: n > n0 and w.tail_bound(n) < half_gap, start=n0 + 1)


def test_closed_form_equals_the_gallop_for_every_n_up_to_2000():
    assert [STOCK.target(n) for n in range(1, 2001)] == [
        galloped_target(STOCK, n) for n in range(1, 2001)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
@example(10 ** 9)
def test_closed_form_equals_the_gallop_at_large_n(n):
    assert STOCK.target(n) == galloped_target(STOCK, n)


def off_by(shift, at=None):
    """The stock witness with its target moved by ``shift``, at one n or at all."""
    return replace(STOCK, target=lambda n: STOCK.target(n) + (shift if at in (None, n) else 0))


# one too small, one too large, at the source, and before it
BAD_FORMS = {
    "one_too_small": off_by(-1),
    "one_too_large": off_by(1),
    "at_the_source": replace(STOCK, target=lambda n: n),
    "before_the_source": replace(STOCK, target=lambda n: n - 1),
}


@pytest.mark.parametrize("name", sorted(BAD_FORMS))
def test_a_wrong_form_is_refused_at_construction_and_in_the_scan(name):
    w = BAD_FORMS[name]
    with pytest.raises(TheoremContradictionError, match="target"):
        construct_counterexample_map(w)
    for count in (1, 2, 100, 10 ** 4):
        with pytest.raises(TheoremContradictionError, match="target"):
            scan_fixed_point_free(ConstructedMap(w), count)
    assert not spot_check_witness(w, prefix=5)


@pytest.mark.parametrize("name", sorted(BAD_FORMS))
def test_a_wrong_form_exits_4_with_empty_stdout(monkeypatch, capsys, name):
    monkeypatch.setattr(cli, "build_reciprocal_witness", lambda: BAD_FORMS[name])
    assert main(["counterexample", "--prefix", "5", "--scan", "10"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("THEOREM CONTRADICTION (implementation defect): the witness's target")


def test_a_wrong_form_still_exits_4_under_python_O():
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from kannanlab import cli\n"
            "w = cli.build_reciprocal_witness()\n"
            "bad = replace(w, target=lambda n: 2 * n * (n + 1))\n"
            "cli.build_reciprocal_witness = lambda: bad\n"
            "sys.exit(cli.main(['counterexample', '--prefix', '5', '--scan', '10']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "THEOREM CONTRADICTION" in proc.stderr and "not the least" in proc.stderr
    assert proc.stdout == ""


def test_target_index_refuses_a_target_not_deeper_than_its_source():
    for target in (lambda n: n, lambda n: n - 1, lambda n: 1):
        cm = ConstructedMap(replace(STOCK, target=target))
        with pytest.raises(TheoremContradictionError, match="deeper"):
            cm.target_index(7)
    assert ConstructedMap(replace(STOCK, target=lambda n: n + 1)).target_index(7) == 8


def test_a_target_at_its_source_off_the_sample_is_still_refused():
    # count 10^4 checks leastness at n = 1, 11, ..., 9991 and 10^4 only;
    # n = 9999 is off that sample, and target_index alone catches it
    w = replace(STOCK, target=lambda n: n if n == 9_999 else STOCK.target(n))
    with pytest.raises(TheoremContradictionError, match="deeper"):
        scan_fixed_point_free(ConstructedMap(w), 10 ** 4)
    assert scan_fixed_point_free(ConstructedMap(w), 9_998)


class LeastnessSpy(ConstructedMap):
    """Records the sources whose target leastness the scan checks."""

    def __init__(self, witness):
        super().__init__(witness)
        self.checked = []

    def check_target_is_least(self, n0):
        self.checked.append(n0)
        super().check_target_is_least(n0)


@pytest.mark.parametrize("count", [1, 100, 101, 999, 1000, 1999, 2000, 10 ** 4])
def test_the_leastness_sample_and_its_last_n(count):
    spy = LeastnessSpy(STOCK)
    assert scan_fixed_point_free(spy, count)
    step = max(1, count // 1000)
    assert spy.checked == sorted(set(range(1, count + 1, step)) | {count})
    assert spy.checked[-1] == count
    if count < 2000:
        assert spy.checked == list(range(1, count + 1))
    # a form one too large at the last n alone is caught
    with pytest.raises(TheoremContradictionError, match="not the least"):
        scan_fixed_point_free(ConstructedMap(off_by(1, at=count)), count)


def test_repeated_terms_make_the_scan_false():
    repeating = replace(STOCK, term=lambda n: F(1, 1 + n % 3))
    assert not scan_fixed_point_free(ConstructedMap(repeating), 10)
    # a single repeat deep in the scan is seen too
    late = replace(STOCK, term=lambda n: F(1, 4_999) if n == 5_000 else F(1, n))
    assert not scan_fixed_point_free(ConstructedMap(late), 10 ** 4)
    assert scan_fixed_point_free(ConstructedMap(late), 4_999)


def test_spot_check_rejects_a_form_wrong_at_one_n():
    assert spot_check_witness(STOCK, prefix=20)
    assert not spot_check_witness(off_by(1, at=20), prefix=20)
    assert not spot_check_witness(off_by(-1, at=13), prefix=20)


def test_max_scan_is_accepted_and_one_more_is_refused_before_the_first_term():
    class Started(Exception):
        pass

    def first_term(n):
        raise Started

    # the cap itself passes the bound and reaches the first term
    with pytest.raises(Started):
        scan_fixed_point_free(ConstructedMap(replace(STOCK, term=first_term)), MAX_SCAN)

    def no_term(n):
        pytest.fail("a term was built past the scan cap")
    with pytest.raises(ValueError, match=f"exceeds {MAX_SCAN}"):
        scan_fixed_point_free(ConstructedMap(replace(STOCK, term=no_term)), MAX_SCAN + 1)
    assert MAX_SCAN == 10 ** 7


def test_scan_past_the_cap_exits_2_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        pytest.fail("work ran past the scan cap")
    monkeypatch.setattr(cli, "verify_counterexample", no_work)
    assert main(["counterexample", "--prefix", "600", "--scan", str(MAX_SCAN + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: scan count {MAX_SCAN + 1} exceeds {MAX_SCAN}, "
                   "the largest scan allowed\n")
