"""Command line driver for indicator scans, censuses and claim checks.

Group arguments are short spec strings: a named family such as sym:7,
cyclic:12 or sym-embed:3,6, or explicit generators like
gens:(1,2)(3,4);(1,3)@4.  When the subgroup spec has smaller degree than the
group it is padded with fixed points.  Output goes to standard output or to
the --out path; --json and --csv select the machine formats.  Exit status is
0 for success or a passing check, 1 for a failing check, 2 for usage errors
and violated bounds; verify and verify-all report a violated bound as a
skipped check instead.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import config
from .catalog import _EXAMPLES, run_all, verify
from .config import load_config
from .cosets import double_cosets, sym_census
from .indicators import category_scan
from .perm import (
    BoundExceeded,
    Permutation,
    PermGroup,
    alt,
    alt_embed,
    cyclic,
    embedded,
    sym,
    sym_embed,
    sym_prime,
    tilde_sym,
    trivial,
)

_FAMILIES = {
    "sym": (1, sym),
    "alt": (1, alt),
    "cyclic": (1, cyclic),
    "tilde-sym": (1, tilde_sym),
    "sym-embed": (2, sym_embed),
    "alt-embed": (2, alt_embed),
    "sym-prime": (2, sym_prime),
}


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group argument; to_text and parse round-trip."""

    kind: str
    params: tuple[int, ...] = ()
    cycles: tuple[str, ...] = field(default=())
    degree: int | None = None

    def to_text(self) -> str:
        if self.kind == "gens":
            return f"gens:{';'.join(self.cycles)}@{self.degree}"
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def build(self) -> PermGroup:
        if self.kind == "gens":
            perms = [Permutation.from_text(c, self.degree) for c in self.cycles]
            perms = [p for p in perms if not p.is_identity()]
            if not perms:
                return trivial(self.degree)
            return PermGroup(self.degree, perms)
        _, family = _FAMILIES[self.kind]
        return family(*self.params)


def parse_group_spec(text: str) -> GroupSpec:
    s = text.strip()
    head, sep, rest = s.partition(":")
    if not sep:
        raise ValueError(f"cannot parse group spec {text!r}: expected "
                         "family:args, no ':' found")
    if head == "gens":
        body, at, degree_text = rest.rpartition("@")
        if not at:
            raise ValueError(f"cannot parse group spec {text!r}: generator "
                             "lists need a trailing @degree")
        try:
            degree = int(degree_text)
        except ValueError:
            raise ValueError(f"cannot parse group spec {text!r}: bad degree "
                             f"{degree_text!r} after '@'") from None
        if degree < 1:
            raise ValueError(f"cannot parse group spec {text!r}: degree must "
                             "be positive")
        cycles = []
        for i, chunk in enumerate(body.split(";")):
            try:
                cycles.append(Permutation.from_text(chunk, degree).to_text())
            except ValueError as exc:
                raise ValueError(f"cannot parse group spec {text!r}: "
                                 f"generator {i + 1}: {exc}") from None
        return GroupSpec("gens", cycles=tuple(cycles), degree=degree)
    if head not in _FAMILIES:
        pos = len(text) - len(s)
        raise ValueError(f"cannot parse group spec {text!r}: unknown family "
                         f"{head!r} at position {pos}")
    nargs, _ = _FAMILIES[head]
    parts = rest.split(",") if rest else []
    if len(parts) != nargs:
        raise ValueError(f"cannot parse group spec {text!r}: {head} takes "
                         f"{nargs} integer argument(s), got {len(parts)}")
    try:
        params = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse group spec {text!r}: non-integer "
                         f"argument in {rest!r}") from None
    return GroupSpec(head, params=params)


def _groups(args) -> tuple[GroupSpec, GroupSpec, PermGroup, PermGroup]:
    gspec = parse_group_spec(args.G)
    hspec = parse_group_spec(args.H)
    group = gspec.build()
    sub = embedded(hspec.build(), group.degree)
    return gspec, hspec, group, sub


def _summary_line(report) -> str:
    return ", ".join(f"{k}: {v}" for k, v in report.summary.items())


def _cmd_indicators(args) -> tuple[int, str]:
    gspec, hspec, group, sub = _groups(args)
    report = category_scan(group, sub, args.m, gspec.to_text(),
                           hspec.to_text())
    if args.json:
        return 0, report.to_json() + "\n"
    if args.csv:
        return 0, report.to_csv()
    lines = [f"degree-{report.m} indicators of C({report.group_label}, "
             f"{report.sub_label})",
             f"simples: {len(report.entries)}",
             f"summary: {_summary_line(report)}"]
    negatives = [e for e in report.entries if e.nu == -1]
    for e in negatives:
        lines.append(f"  -1 at rep {e.rep.to_text()} with chi of degree "
                     f"{e.chi_degree}")
    return 0, "\n".join(lines) + "\n"


def _cmd_double_cosets(args) -> tuple[int, str]:
    _, _, group, sub = _groups(args)
    decomposition = double_cosets(group, sub)
    if args.json:
        payload = [{"rep": dc.rep.to_text(), "size": dc.size,
                    "n_left": dc.n_left} for dc in decomposition.cosets]
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"{len(decomposition.cosets)} double cosets"]
    for dc in decomposition.cosets:
        lines.append(f"{dc.rep.to_text()} size {dc.size} left-cosets "
                     f"{dc.n_left}")
    return 0, "\n".join(lines) + "\n"


def _cmd_census(args) -> tuple[int, str]:
    if not 1 <= args.l <= args.n:
        raise ValueError("need 1 <= l <= n")
    total, null = sym_census(args.l, args.n)
    return 0, f"{total},{null}\n"


def _verify_params(args) -> dict:
    return {name: getattr(args, name) for name in ("n", "l", "k")
            if getattr(args, name) is not None}


def _cmd_verify(args) -> tuple[int, str]:
    try:
        report = verify(args.claim, **_verify_params(args))
    except TypeError as exc:
        raise ValueError(f"wrong parameters for claim {args.claim!r}: "
                         f"{exc}") from None
    code = 1 if report.status == "fail" else 0
    if args.json:
        return code, json.dumps(report.to_payload(with_runtime=False),
                                indent=2, sort_keys=True) + "\n"
    return code, report.line() + "\n"


def _cmd_verify_all(args) -> tuple[int, str]:
    reports = run_all(args.profile)
    failed = sum(1 for r in reports if r.status == "fail")
    if args.json:
        payload = [r.to_payload(with_runtime=False) for r in reports]
        return (1 if failed else 0,
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = [r.line() for r in reports]
    skipped = sum(1 for r in reports if r.status == "skipped")
    lines.append(f"{len(reports) - failed - skipped} passed, {failed} failed, "
                 f"{skipped} skipped")
    return (1 if failed else 0), "\n".join(lines) + "\n"


def _cmd_example(args) -> tuple[int, str]:
    status, _, lines = _EXAMPLES[args.id]()
    return (0 if status == "pass" else 1), "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fscat",
        description="Frobenius-Schur indicators of group-theoretical "
                    "fusion categories of permutation groups.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags below override it")
    parser.add_argument("--enum-bound", type=int, metavar="N",
                        help="most group elements, classes or "
                             "character-table entries one step may list")
    parser.add_argument("--index-bound", type=int, metavar="N",
                        help="largest coset index to traverse")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="accepted for compatibility; character tables "
                             "are deterministic and ignore it")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to this file instead of stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("indicators",
                            help="scan all simples of the pair category")
    p.add_argument("--G", required=True, metavar="SPEC")
    p.add_argument("--H", required=True, metavar="SPEC")
    p.add_argument("--m", type=int, default=2, metavar="M")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_indicators)

    p = commands.add_parser("double-cosets",
                            help="list the double cosets of H in G")
    p.add_argument("--G", required=True, metavar="SPEC")
    p.add_argument("--H", required=True, metavar="SPEC")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_double_cosets)

    p = commands.add_parser("census",
                            help="count double cosets of sym-embed:l,n and "
                                 "the null ones among them")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = commands.add_parser("verify", help="run one catalogued check")
    p.add_argument("--claim", required=True, metavar="ID")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = commands.add_parser("verify-all",
                            help="run a whole verification profile")
    p.add_argument("--profile", default="quick",
                   choices=("quick", "full", "extended"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_all)

    p = commands.add_parser("example", help="print one worked instance")
    p.add_argument("--id", required=True, choices=sorted(_EXAMPLES))
    p.set_defaults(func=_cmd_example)
    return parser


def _apply_config(args) -> None:
    cfg = load_config(args.config)
    if args.enum_bound is not None:
        cfg.enumeration_bound = args.enum_bound
    if args.index_bound is not None:
        cfg.index_bound = args.index_bound
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    config.ENUMERATION_BOUND = cfg.enumeration_bound
    config.INDEX_BOUND = cfg.index_bound


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The bounds hold for this call only; the caller's values come back on
    # every exit path.
    saved = config.ENUMERATION_BOUND, config.INDEX_BOUND
    try:
        _apply_config(args)
        code, text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (BoundExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        config.ENUMERATION_BOUND, config.INDEX_BOUND = saved
    return code


if __name__ == "__main__":
    sys.exit(main())
