"""Checks for the claim registry: dispatch, bound handling, and the recorded
pass/fail pattern of the two run profiles.

The full profile is expected to contain failures.  Those record spots where
the stated tallies or exceptional sets do not survive recomputation, and the
tests below pin the offending objects so a regression in either direction
(a wrong pass or a new kind of failure) shows up.
"""

import hashlib
import json

import pytest

from fscat import chartab, cosets
from fscat.catalog import _EXAMPLES, claim_ids, run_all, verify
from fscat.indicators import category_scan
from fscat.perm import PermGroup, alt, tilde_sym


def test_registry_lists_all_claims():
    assert set(claim_ids()) == {
        "thm-Sl", "census", "thm-An", "thm-Al", "thm-Cn", "ex-nu-p",
        "ex-minus-one", "gap-s8c8", "thm-tilde", "thm-tilde-plus1",
        "thm-tilde-plusk", "lemma-twisted-An",
    }


def test_unknown_claim_and_profile_are_rejected():
    with pytest.raises(ValueError):
        verify("thm-nonsense")
    with pytest.raises(ValueError):
        run_all("exhaustive")


def test_bad_parameters_are_rejected():
    with pytest.raises(ValueError):
        verify("thm-Sl", n=5, l=5)
    with pytest.raises(ValueError):
        verify("thm-Cn", n=8)
    with pytest.raises(ValueError):
        verify("thm-tilde", n=3)
    with pytest.raises(ValueError):
        verify("thm-tilde-plusk", n=6, k=1)
    with pytest.raises(ValueError):
        verify("census", l=7, n=6)


def test_oversized_instances_come_back_skipped():
    # the twisted lemma lists no group, but A_26 has 1,236 classes, and its
    # character table would hold 1,527,696 entries
    report = verify("lemma-twisted-An", n=26)
    assert report.status == "skipped"
    assert not report.ok
    assert "enumeration bound" in report.detail

    report = verify("census", l=4, n=10)
    assert report.status == "skipped"
    assert "index bound" in report.detail


def test_census_of_s10_lists_cosets_and_no_group(monkeypatch):
    # the index of Sym{1..5} in S_10 is within the bound; the relabeling
    # route lists its 30,240 left cosets and sym_census the block-count
    # matrices, so neither S_10 nor any other group is listed or walked
    def no_walk(*args):
        raise AssertionError("a group was walked or listed")

    monkeypatch.setattr(cosets, "_coset_orbit", no_walk)
    monkeypatch.setattr(PermGroup, "element_tuples", no_walk)
    report = verify("census", l=5, n=10)
    assert report.status == "pass"
    assert report.detail == ("both routes give (1546, 1404); no stated "
                             "tally to compare against")


def test_census_skips_on_the_index_bound_before_the_relabeling_route(
        monkeypatch):
    # S_9 is within the enumeration bound, the index of Sym{1} is not
    def no_forms(*args):
        raise AssertionError("the relabeling route ran")

    monkeypatch.setattr(cosets, "_raw_normal_form", no_forms)
    report = verify("census", l=1, n=9)
    assert report.status == "skipped"
    assert "index bound" in report.detail


def test_ex_nu_p_passes_over_h_once(monkeypatch):
    # the witness is read off the census that gives the indicators, so
    # Sym{1..5} is listed and powered once
    calls = []
    powers = PermGroup._coset_powers

    def counting(self, g, m):
        calls.append(m)
        return powers(self, g, m)

    monkeypatch.setattr(PermGroup, "_coset_powers", counting)
    status, detail, lines = _EXAMPLES["ex-nu-p"]()
    assert calls == [7]
    assert status == "pass"
    assert lines[1] == "some element of gH has its 7th power in H: False"


def test_report_line_and_payload():
    report = verify("thm-Cn", n=3)
    assert report.ok
    assert report.line().startswith("pass    thm-Cn(n=3): ")
    payload = report.to_payload()
    assert payload["claim"] == "thm-Cn"
    assert payload["params"] == {"n": 3}
    assert isinstance(payload["runtime"], float)
    assert "runtime" not in report.to_payload(with_runtime=False)


def test_quick_profile_all_pass():
    reports = run_all("quick")
    assert len(reports) >= 12
    bad = [r.line() for r in reports if not r.ok]
    assert bad == []
    assert {"thm-Sl", "census", "thm-An", "thm-Al", "thm-Cn", "ex-nu-p",
            "thm-tilde", "lemma-twisted-An"} <= {r.claim for r in reports}


def test_quick_profile_builds_no_table_by_dixon(monkeypatch):
    # its tables come from partitions or, for the cyclic stabilizers of
    # thm-Cn, by character extension
    def no_dixon(*args):
        raise AssertionError("Dixon's method ran")

    monkeypatch.setattr(chartab, "_dixon", no_dixon)
    assert [r.line() for r in run_all("quick") if not r.ok] == []


@pytest.fixture(scope="module")
def full_reports():
    return {(r.claim, tuple(sorted(r.params.items()))): r
            for r in run_all("full")}


def _status(full_reports, claim, **params):
    return full_reports[(claim, tuple(sorted(params.items())))]


def test_full_profile_matches_the_recorded_pattern(full_reports):
    expected_fail = {
        ("census", (("l", 4), ("n", 8))),
        ("thm-tilde", (("n", 4),)),
        ("thm-tilde", (("n", 5),)),
        ("thm-tilde", (("n", 9),)),
        ("thm-tilde", (("n", 10),)),
        ("thm-tilde-plus1", (("n", 4),)),
        ("thm-tilde-plus1", (("n", 5),)),
        ("thm-tilde-plus1", (("n", 6),)),
        ("thm-tilde-plus1", (("n", 10),)),
        ("thm-tilde-plusk", (("k", 2), ("n", 4))),
        ("thm-tilde-plusk", (("k", 2), ("n", 5))),
        ("thm-tilde-plusk", (("k", 2), ("n", 6))),
    }
    failing = {key for key, r in full_reports.items() if r.status == "fail"}
    assert failing == expected_fail
    assert all(r.status in ("pass", "fail") for r in full_reports.values())


def test_full_profile_json_is_pinned(full_reports):
    # the bytes `fscat verify-all --profile full --json` prints
    payload = [r.to_payload(with_runtime=False) for r in full_reports.values()]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(payload) == 42
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ab9ae89e372f511d664993669e850e1866f6b041892d065db57113f3557bdf91")


def test_census_failure_names_both_tallies(full_reports):
    report = _status(full_reports, "census", l=4, n=8)
    assert "(209, 166)" in report.detail
    assert "(197, 154)" in report.detail
    assert "(1,5,6)(2,7)(3,8)" in report.detail


def test_four_cycle_coset_breaks_the_small_tilde_instances(full_reports):
    assert "(1,3,2,4)" in _status(full_reports, "thm-tilde", n=4).detail
    assert "(1,3)(2,4,5)" in _status(full_reports, "thm-tilde", n=5).detail
    assert "(1,3,2,4)" in _status(full_reports, "thm-tilde-plus1", n=4).detail


def test_large_tilde_failures_name_the_flip_cosets(full_reports):
    nine = _status(full_reports, "thm-tilde", n=9)
    assert "(1,3)(2,4)(8,9)" in nine.detail and "degree 6" in nine.detail
    ten = _status(full_reports, "thm-tilde", n=10)
    assert "(1,3)(2,4)(9,10)" in ten.detail and "degree 16" in ten.detail


def test_shifted_tilde_failures_include_even_cosets(full_reports):
    assert "(1,3)(2,4)(5,6,7)" in _status(full_reports, "thm-tilde-plus1",
                                          n=6).detail
    assert "(1,3)(2,4)(5,6,7)" in _status(full_reports, "thm-tilde-plusk",
                                          n=6, k=2).detail
    assert "(1,3)(2,4)(9,10,11)" in _status(full_reports, "thm-tilde-plus1",
                                            n=10).detail


def test_alternating_tilde_subcategory_is_clean_exactly_on_the_stated_set():
    # C(A_n, tilde S_{n-2}) is the even double cosets of the full category;
    # past n = 11 only the scan's m = 2 route, which lists no element of
    # tilde S_{n-2}, reaches it within the enumeration bound
    clean = {n for n in range(4, 15)
             if set(category_scan(alt(n), tilde_sym(n), 2).values()) <= {0, 1}}
    assert clean == {4, 5, 6, 9, 10, 14}
    # the full category keeps a -1 on the odd flip coset at 14
    report = verify("thm-tilde", n=14)
    assert report.status == "fail"
    assert "(1,3)(2,4)(13,14) chi of degree 448 gives -1" in report.detail
    assert "(1,3)(2,4)(13,14) chi of degree 768 gives -1" in report.detail


def test_full_profile_positive_highlights(full_reports):
    assert "no negative indicator" in _status(full_reports, "gap-s8c8").detail
    assert "-1 attained" in _status(full_reports, "thm-tilde", n=8).detail
    assert _status(full_reports, "ex-minus-one").ok
    assert _status(full_reports, "thm-tilde", n=6).ok
