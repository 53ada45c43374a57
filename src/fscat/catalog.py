"""Named verification checks over the indicator machinery.

Each catalogued statement about the pair categories of symmetric, alternating
and cyclic groups is re-run here from scratch at desk scale and turned into a
structured report.  A check that trips the enumeration or index bound, which
the enumerating layers enforce by raising BoundExceeded, comes back as
skipped, never as an extrapolated pass; a failing check always names a
concrete offending object.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .chartab import character_table, conjugacy_classes, induce, nu_classical
from .cosets import is_null_coset, normal_form_census, stabilizer, sym_census
from .indicators import (_census_indicators, _nu_m_census, _nu_m_row,
                         _twisted_counts, category_scan)
from .perm import (
    BoundExceeded,
    Permutation,
    alt,
    alt_embed,
    conjugate,
    cyclic,
    sym,
    sym_embed,
    tilde_sym,
)


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    params: dict
    status: str
    detail: str
    runtime: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        shown = ", ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"{self.claim}({shown})" if shown else self.claim
        return f"{self.status:7s} {head}: {self.detail}"

    def to_payload(self, with_runtime: bool = True) -> dict:
        out = {"claim": self.claim, "params": self.params,
               "status": self.status, "detail": self.detail}
        if with_runtime:
            out["runtime"] = round(self.runtime, 3)
        return out


def _summary_text(report) -> str:
    inner = ", ".join(f"{k}: {v}" for k, v in report.summary.items())
    return f"{{{inner}}} over {len(report.entries)} simples"


def _offenders(report, bad) -> str:
    rows = [e for e in report.entries if e.nu in bad][:3]
    return "; ".join(f"rep {e.rep.to_text()} chi of degree {e.chi_degree} "
                     f"gives {e.nu}" for e in rows)


def _scan_in_range(group, sub, allowed, want_minus_one=False):
    """Common body: scan at degree 2, then check the value range, or instead
    require that -1 is attained."""
    report = category_scan(group, sub, 2)
    values = set(report.values())
    if want_minus_one:
        if -1 in values:
            witness = next(e for e in report.entries if e.nu == -1)
            return ("pass", f"-1 attained at rep {witness.rep.to_text()} with "
                    f"chi of degree {witness.chi_degree}; "
                    + _summary_text(report))
        return ("fail", "no simple with indicator -1 found; "
                + _summary_text(report))
    if values <= allowed:
        return ("pass", _summary_text(report))
    return ("fail", f"values escape {sorted(allowed)}: "
            + _offenders(report, values - allowed))


def _check_thm_sl(n: int, l: int):
    if not 2 <= l < n:
        raise ValueError("need 2 <= l < n")
    report = category_scan(sym(n), sym_embed(l, n), 2)
    per_rep: dict = {}
    for e in report.entries:
        per_rep.setdefault(e.rep, set()).add(e.nu)
    if not set(report.values()) <= {0, 1}:
        return ("fail", "values escape {0, 1}: "
                + _offenders(report, set(report.values()) - {0, 1}))
    for rep, vals in per_rep.items():
        if len(vals) > 1:
            return ("fail", f"coset of {rep.to_text()} mixes values {sorted(vals)}")
        if (vals == {0}) != is_null_coset(rep, l):
            return ("fail", f"coset of {rep.to_text()} disagrees with the "
                    "normal-form classification")
    zeros = sum(1 for vals in per_rep.values() if vals == {0})
    return ("pass", f"{len(per_rep)} cosets, {zeros} all-zero, rest all-one, "
            "matching the normal-form split")


_STATED_CENSUS = {(3, 6): (34, 20), (4, 8): (197, 154)}


def _check_census(l: int, n: int):
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    # both routes list at most the [S_n : Sym{1..l}] left cosets, never S_n,
    # and check the index bound before they list anything, so an oversized
    # instance trips the index bound and no enumeration bound
    relabeled = normal_form_census(l, n)
    computed = sym_census(l, n)
    if computed != relabeled:
        return ("fail", f"orbit route {computed} disagrees with the "
                f"relabeling route {relabeled}")
    stated = _STATED_CENSUS.get((l, n))
    if stated is None and n - l == 2 and 4 <= n <= 8:
        stated = (7, 2)
    if stated is None:
        return ("pass", f"both routes give {computed}; no stated tally to "
                "compare against")
    if computed == stated:
        return ("pass", f"both routes give {computed}, matching the stated "
                "tally")
    return ("fail", f"both routes give {computed} but the stated tally is "
            f"{stated}; e.g. the null coset of (1,5,6)(2,7)(3,8) falls "
            "outside the stated itemization")


def _check_thm_an(n: int):
    return _scan_in_range(sym(n), alt(n), {0, 1})


def _check_thm_al(n: int, l: int):
    if not 2 <= l < n:
        raise ValueError("need 2 <= l < n")
    return _scan_in_range(sym(n), alt_embed(l, n), {0, 1})


def _check_thm_cn(n: int):
    if n % 4 == 0:
        raise ValueError("the cyclic statement needs n not divisible by 4")
    return _scan_in_range(sym(n), cyclic(n), {0, 1})


def _example_nu_p():
    """The vanishing degree-7 indicators on the coset of (5,6) over
    Sym{1..5} in S_7: (status, detail, printable lines)."""
    sub = sym_embed(5, 7)
    g = Permutation.from_text("(5,6)", 7)
    stab = stabilizer(g, sub)
    counts, values = _nu_m_census(g, character_table(stab).characters, sub, 7)
    # the census counts every seventh power that lands back in H
    witness = sum(counts) > 0
    lines = ["coset of g = (5,6) in sym:7 over H = sym-embed:5,7, m = 7",
             f"some element of gH has its 7th power in H: {witness}",
             f"stabilizer order {stab.order()}",
             f"nu_7 over the {len(values)} characters: {values}",
             "unexpected nonzero value" if witness or any(values)
             else "all degree-7 indicators vanish"]
    if witness:
        return ("fail", "a seventh power of the coset lands back in the "
                "subgroup, so the vanishing argument breaks", lines)
    if any(values):
        return ("fail", f"nonzero degree-7 indicator found: {values}", lines)
    return ("pass", f"no witness and all {len(values)} degree-7 indicators "
            f"vanish on the coset of (5,6); stabilizer order {stab.order()}",
            lines)


def _example_minus_one():
    """The indicator -1 on the double coset of (1,2,7,8)(3,11,9,5)(4,12,10,6)
    over the 12-cycle: (status, detail, printable lines)."""
    sub = cyclic(12)
    t = Permutation.from_text("(1,2,3,4,5,6,7,8,9,10,11,12)")
    g = Permutation.from_text("(1,2,7,8)(3,11,9,5)(4,12,10,6)")
    squares = g * g == t ** 6
    gi = g.inverse()
    outside = [conjugate(gi, t), conjugate(gi, t ** 2), conjugate(gi, t ** 3),
               conjugate(g, t ** 4)]
    inside = [u for u in outside if u in sub]
    stab = stabilizer(g, sub)
    characters = character_table(stab).characters
    values = _nu_m_row(g, characters, sub, 2)
    lines = [f"g = {g.to_text()}", "H = cyclic:12 generated by the 12-cycle t",
             f"g^2 equals t^6: {squares}"]
    lines += [f"conjugate {u.to_text()} lies in H: {u in inside}"
              for u in outside]
    lines.append(f"stabilizer of the coset: order {stab.order()}, "
                 "generated by g^2")
    lines += [f"chi with chi(g^2) = {chi.values[1]}: nu_2 = {value}"
              + ("   <-- indicator -1" if value == -1 else "")
              for chi, value in zip(characters, values)]
    if not squares:
        return ("fail", "g^2 is not the sixth power of the 12-cycle", lines)
    if inside:
        return ("fail", f"conjugate {inside[0].to_text()} unexpectedly lies "
                "in the cyclic subgroup", lines)
    if stab.order() != 2:
        return ("fail", f"stabilizer has order {stab.order()}, not 2", lines)
    if sorted(values) != [-1, 1]:
        return ("fail", f"indicator pair is {sorted(values)}, not [-1, 1]",
                lines)
    return ("pass", "stabilizer {e, g^2} of order 2, all four conjugates "
            "outside the subgroup, indicator -1 attained", lines)


_EXAMPLES = {"ex-minus-one": _example_minus_one, "ex-nu-p": _example_nu_p}


def _check_gap_s8c8():
    report = category_scan(sym(8), cyclic(8), 2)
    if min(report.values()) >= 0:
        return ("pass", "no negative indicator; " + _summary_text(report))
    return ("fail", "negative indicator found: " + _offenders(report, {-1}))


_TILDE_ZERO_ONE = {4, 5, 6, 9, 10, 14, 18}
_TILDE_PLUS1_ZERO_ONE = {4, 5, 6, 10}
_TILDE_PLUSK_ZERO_ONE = {4, 5, 6}


def _check_tilde_family(n: int, shift: int, zero_one_set) -> tuple[str, str]:
    if n < 4:
        raise ValueError("need n >= 4")
    degree = n + shift
    sub = tilde_sym(n, degree=degree)
    if n in zero_one_set:
        return _scan_in_range(sym(degree), sub, {0, 1})
    return _scan_in_range(alt(degree), sub, set(), want_minus_one=True)


def _check_thm_tilde(n: int):
    return _check_tilde_family(n, 0, _TILDE_ZERO_ONE)


def _check_thm_tilde_plus1(n: int):
    return _check_tilde_family(n, 1, _TILDE_PLUS1_ZERO_ONE)


def _check_thm_tilde_plusk(n: int, k: int):
    if k < 2:
        raise ValueError("need k >= 2")
    return _check_tilde_family(n, k, _TILDE_PLUSK_ZERO_ONE)


def _check_lemma_twisted_an(n: int):
    if n < 3:
        raise ValueError("need n >= 3")
    over = sym(n)
    odd_involutions = [rep for rep in conjugacy_classes(over).reps
                       if rep.sign == -1 and (rep * rep).is_identity()]
    group = alt(n)
    table = character_table(group)
    # one census per involution serves every character
    twisted = [_census_indicators(_twisted_counts(conjugacy_classes(group), u),
                                  table.characters, group.order(),
                                  f"twisted indicator by {u.to_text()}")
               for u in odd_involutions]
    checked = 0
    for j, chi in enumerate(table.characters):
        lifted = nu_classical(induce(chi, over)) - nu_classical(chi)
        expected = lifted.as_rational_integer()
        for u, values in zip(odd_involutions, twisted):
            value = values[j]
            if value not in (0, 1):
                return ("fail", f"twist by {u.to_text()} gives {value} on a "
                        f"degree-{chi.degree} character")
            if value != expected:
                return ("fail", f"twist by {u.to_text()} gives {value} but "
                        f"the induction route gives {expected}")
            checked += 1
    return ("pass", f"{checked} twisted indicators, all 0 or 1, each equal "
            "to its induction-route value")


_REGISTRY = {
    "thm-Sl": _check_thm_sl,
    "census": _check_census,
    "thm-An": _check_thm_an,
    "thm-Al": _check_thm_al,
    "thm-Cn": _check_thm_cn,
    "ex-nu-p": _example_nu_p,
    "ex-minus-one": _example_minus_one,
    "gap-s8c8": _check_gap_s8c8,
    "thm-tilde": _check_thm_tilde,
    "thm-tilde-plus1": _check_thm_tilde_plus1,
    "thm-tilde-plusk": _check_thm_tilde_plusk,
    "lemma-twisted-An": _check_lemma_twisted_an,
}


def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def verify(claim: str, **params) -> VerificationReport:
    """Run one registered claim and wrap the outcome with its runtime.

    A check returns (status, detail); a worked example also returns the lines
    `fscat example` prints, which the report leaves out.  A BoundExceeded
    raised inside the check makes the report skipped, with the exception's
    text as the detail.
    """
    try:
        check = _REGISTRY[claim]
    except KeyError:
        raise ValueError(f"unknown claim id: {claim!r}") from None
    start = time.perf_counter()
    try:
        status, detail = check(**params)[:2]
    except BoundExceeded as exc:
        status, detail = "skipped", str(exc)
    return VerificationReport(claim=claim, params=dict(params), status=status,
                              detail=detail,
                              runtime=time.perf_counter() - start)


_QUICK = [
    ("thm-Sl", {"n": 5, "l": 2}),
    ("thm-Sl", {"n": 6, "l": 3}),
    ("thm-Sl", {"n": 7, "l": 4}),
    ("census", {"l": 3, "n": 6}),
    ("census", {"l": 5, "n": 7}),
    ("thm-An", {"n": 6}),
    ("thm-An", {"n": 7}),
    ("thm-Al", {"n": 6, "l": 5}),
    ("thm-Al", {"n": 7, "l": 5}),
    ("thm-Cn", {"n": 3}),
    ("thm-Cn", {"n": 5}),
    ("thm-Cn", {"n": 6}),
    ("thm-Cn", {"n": 7}),
    ("ex-nu-p", {}),
    ("thm-tilde", {"n": 6}),
    ("thm-tilde", {"n": 7}),
    ("lemma-twisted-An", {"n": 5}),
    ("lemma-twisted-An", {"n": 6}),
    ("lemma-twisted-An", {"n": 7}),
]

_FULL_EXTRA = [
    ("census", {"l": 4, "n": 8}),
    ("census", {"l": 6, "n": 8}),
    ("thm-Sl", {"n": 8, "l": 5}),
    ("thm-An", {"n": 8}),
    ("thm-Al", {"n": 8, "l": 6}),
    ("ex-minus-one", {}),
    ("gap-s8c8", {}),
    ("thm-tilde", {"n": 4}),
    ("thm-tilde", {"n": 5}),
    ("thm-tilde", {"n": 8}),
    ("thm-tilde", {"n": 9}),
    ("thm-tilde", {"n": 10}),
    ("thm-tilde-plus1", {"n": 4}),
    ("thm-tilde-plus1", {"n": 5}),
    ("thm-tilde-plus1", {"n": 6}),
    ("thm-tilde-plus1", {"n": 7}),
    ("thm-tilde-plus1", {"n": 8}),
    ("thm-tilde-plus1", {"n": 10}),
    ("thm-tilde-plusk", {"n": 4, "k": 2}),
    ("thm-tilde-plusk", {"n": 5, "k": 2}),
    ("thm-tilde-plusk", {"n": 6, "k": 2}),
    ("thm-tilde-plusk", {"n": 7, "k": 2}),
    ("lemma-twisted-An", {"n": 8}),
]


_EXTENDED_EXTRA = [
    ("thm-tilde", {"n": 11}),
    ("thm-tilde-plus1", {"n": 11}),
    ("thm-tilde-plus1", {"n": 9}),
    *[("thm-An", {"n": n}) for n in range(10, 15)],
    *[("thm-tilde", {"n": n}) for n in range(12, 19)],
    *[("lemma-twisted-An", {"n": n}) for n in range(9, 13)],
    *[("thm-tilde-plus1", {"n": n}) for n in range(12, 15)],
    *[("thm-tilde-plusk", {"n": n, "k": 2}) for n in range(8, 14)],
]

_PROFILES = {
    "quick": _QUICK,
    "full": _QUICK + _FULL_EXTRA,
    "extended": _QUICK + _FULL_EXTRA + _EXTENDED_EXTRA,
}


def run_all(profile: str = "quick") -> list[VerificationReport]:
    """Run the registry over a fixed parameter schedule.

    quick stays at degree <= 7; full adds the degree 8..12 instances;
    extended adds to full the degree-11 tilde scans, thm-tilde-plus1 for
    n = 9, thm-An for n = 10..14, thm-tilde for n = 12..18,
    lemma-twisted-An for n = 9..12, thm-tilde-plus1 for n = 12..14 and
    thm-tilde-plusk (k = 2) for n = 8..13.
    """
    try:
        schedule = _PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile: {profile!r}") from None
    return [verify(claim, **params) for claim, params in schedule]
