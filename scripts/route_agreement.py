"""Cross-check the five degree-2 indicator routes on one pair category.

For every double coset that admits a representative squaring into the
subgroup (and whose adjusted representative is not itself a member), all
five formulas must give the same integer on every character of the coset
stabilizer: the defining subgroup sum, the stabilizer-only sum, the square
count over the extended stabilizer, the induced-character route and the
extension-character route.  A subgroup spec of smaller degree is padded
with fixed points, as `fscat indicators` does.
"""
import argparse
import sys

from fscat import (
    category_scan,
    character_table,
    double_cosets,
    nu2_extension,
    nu2_induced,
    nu2_squares,
    nu2_stab,
    nu_m,
    parse_group_spec,
    stabilizer,
    two_power_rep,
)
from fscat.perm import embedded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--G", default="sym:6")
    parser.add_argument("--H", default="sym-embed:3,6")
    args = parser.parse_args(argv)

    group = parse_group_spec(args.G).build()
    sub = embedded(parse_group_spec(args.H).build(), group.degree)
    members = sub.element_set()
    checked = disagreements = 0
    for dc in double_cosets(group, sub).cosets:
        w = two_power_rep(dc.rep, sub)
        if w is None or w._img in members:
            continue
        stab = stabilizer(dc.rep, sub)
        for chi in character_table(stab).characters:
            base = nu_m(w, chi, sub, 2)
            routes = (nu2_stab(w, chi, sub), nu2_squares(w, chi, sub),
                      nu2_induced(w, chi, sub), nu2_extension(w, chi, sub))
            checked += 1
            if any(r != base for r in routes):
                disagreements += 1
                print(f"DISAGREE at {w.to_text()}, chi of degree "
                      f"{chi.degree}: {base} vs {routes}")
    summary = category_scan(group, sub, 2).summary
    print(f"{checked} simples cross-checked on five routes, "
          f"{disagreements} disagreements; scan summary {summary}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
