"""The benchmark's workloads: fixed inputs, the timed call and its output.

Each workload has a setup (build the inputs; timed as setup_s together with
interpreter start) and a solve (the call a user waits for; timed as wall_s)
that returns the exact text the user gets.  The seed reaches the program only
where the program takes one: the Dixon search behind every character table.
Results must not depend on it, which the recorded digests check.
README.md says why each workload was chosen.
"""
from __future__ import annotations

import contextlib
import io


class Scan:
    """category_scan over C(G, H) at degree m, then the JSON report."""

    def __init__(self, build, labels, m):
        self.build, self.labels, self.m = build, labels, m

    def setup(self, seed: int):
        from fscat import perm
        group, sub = self.build(perm)
        group.order()
        sub.order()
        return group, sub, seed

    def solve(self, state) -> str:
        from fscat import indicators
        group, sub, seed = state
        report = indicators.category_scan(group, sub, self.m, *self.labels,
                                          seed=seed)
        return report.to_json()


class VerifyAll:
    """`fscat verify-all --profile quick --json` through cli.main."""

    def setup(self, seed: int):
        import fscat.cli  # noqa: F401  (the import is part of set-up)
        return ["--seed", str(seed), "verify-all", "--profile", "quick",
                "--json"]

    def solve(self, argv) -> str:
        from fscat import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"verify-all exited with {code}")
        return out.getvalue()


# The labels are the specs `fscat indicators --G ... --H ...` would print.
WORKLOADS = {
    "scan-wide": Scan(lambda p: (p.sym(10), p.sym_embed(5, 10)),
                      ("sym:10", "sym-embed:5,10"), 2),
    "scan-deep": Scan(lambda p: (p.sym(11), p.tilde_sym(10, degree=11)),
                      ("sym:11", "tilde-sym:10"), 2),
    "scan-higher": Scan(lambda p: (p.sym(10), p.sym_embed(7, 10)),
                        ("sym:10", "sym-embed:7,10"), 4),
    "verify-quick": VerifyAll(),
}

# Layers each workload must reach in a traced run; a layer with no call
# means the wrappers lost track of the program.
LAYERS_REACHED = {
    "scan-wide": ("perm", "cosets", "chartab", "cyclo", "indicators"),
    "scan-deep": ("perm", "cosets", "chartab", "cyclo", "indicators"),
    "scan-higher": ("perm", "cosets", "chartab", "cyclo", "indicators"),
    "verify-quick": ("perm", "cosets", "chartab", "cyclo", "indicators",
                     "catalog", "cli"),
}
