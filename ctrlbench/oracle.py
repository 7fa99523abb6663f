"""Independent order oracle for the benchmark inputs, built on sympy only.

    python3 ctrlbench/oracle.py ctrlbench/systems/chain.json          # k = 6
    python3 ctrlbench/oracle.py systems/counterexample.json           # k = 3
    python3 ctrlbench/oracle.py ctrlbench/systems/rational_chain.json # none up to 10

It reads a system document (raw dynamics; any running cost is ignored, as
`ctrlorder order` does without --extend-cost), forms the bracket fields
[g_j, ad_f^(k-1) g_i] with [a, b] = (Db)a - (Da)b, and reports the first
level k where one of them does not cancel to 0.  It shares no code with
ctrlorder; expected.json records its answers.
"""

from __future__ import annotations

import json
import sys

import sympy


def _bracket(a, b, coords):
    """[a, b] = (Db) a - (Da) b, each component cancelled to a canonical form."""
    jb = sympy.Matrix(b).jacobian(coords)
    ja = sympy.Matrix(a).jacobian(coords)
    return [sympy.cancel(sympy.expand(c)) for c in (jb * sympy.Matrix(a) - ja * sympy.Matrix(b))]


def _is_zero(field) -> bool:
    return all(sympy.simplify(c) == 0 for c in field)


def first_order_level(document: dict, k_max: int = 10) -> int | None:
    """First k whose bracket fields do not all vanish, or None up to k_max."""
    coords = sympy.symbols(document["states"])
    table = {str(c): c for c in coords}
    table.update({"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp})

    def expr(text: str):
        return sympy.sympify(text.replace("^", "**"), locals=table)

    f = [expr(t) for t in document["f"]]
    inputs = [[expr(t) for t in row] for row in document["g"]]
    chains = [[g] for g in inputs]  # chains[i][l] = ad_f^l g_i
    for k in range(1, k_max + 1):
        for chain in chains:
            if len(chain) < k:
                chain.append(_bracket(f, chain[-1], coords))
        for chain in chains:
            for gj in inputs:
                if not _is_zero(_bracket(gj, chain[k - 1], coords)):
                    return k
    return None


def main(argv: list[str]) -> int:
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            k = first_order_level(json.load(fh))
        print(f"{path}: " + (f"k = {k}, q = {sympy.Rational(k, 2)}" if k else "no order up to k = 10"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
