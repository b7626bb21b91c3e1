"""Seeded inputs for the three perfbench workloads.

Everything here is derived from the workload seed and the unit index alone,
so the same seed gives byte-identical inputs on every machine.  The program
under test only ever sees the generated values.
"""

from __future__ import annotations

import random

# The fourteen admissible (c1, c2) pairs of the quintic catalog, as the paper
# lists them.  The sweep is built from this list, not from the program's
# catalog, and the child checks that the two agree.
CATALOG_PAIRS: tuple[tuple[int, int], ...] = (
    (-2, 1), (-1, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (1, 8), (4, 30),
    (2, 11), (2, 12), (2, 13), (2, 14), (3, 20),
)
SWEEP_M = range(-3, 1)

# Expression corpus: half the draws on the quintic, the rest spread over the
# other degrees; no tensor or sum is allowed to build a bundle above RANK_CAP.
OTHER_DEGREES = (1, 2, 3, 4, 6, 7, 8)
QUERIES = ("chi", "ch", "chern")
RANK_CAP = 8
MAX_DEPTH = 4
EXPR_CHUNK = 2000

# The CLI mix: the cold end-to-end analyze, the table, the catalog, and the
# README's two eval examples in all three formats.
EVAL_CHI = "bundle(2,4,30)(-1) * dual(bundle(2,0,3))"
EVAL_CHERN = "cat(4,30) ++ cat(1,8)"
CLI_MIX: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("analyze_all_verbose_json", ("analyze", "--all", "--verbose", "--format", "json")),
    ("table", ("table",)),
    ("catalog_tsv", ("catalog", "--format", "tsv")),
) + tuple(
    (f"eval_{query}_{fmt}", ("eval", query, text, "--format", fmt))
    for query, text in (("chi", EVAL_CHI), ("chern", EVAL_CHERN))
    for fmt in ("text", "json", "tsv")
)


def triple_key(F: tuple[int, int], E: tuple[int, int], m: int) -> str:
    return f"{F[0]},{F[1]}|{E[0]},{E[1]}|{m}"


def sweep_triples() -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """All 14 x 14 catalog pairs with m in [-3, 0]: 784 triples."""
    return [(F, E, m) for F in CATALOG_PAIRS for E in CATALOG_PAIRS for m in SWEEP_M]


def sweep_order(seed: int, index: int) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """The 784 triples in the order of pass ``index`` under ``seed``."""
    triples = sweep_triples()
    random.Random(f"sweep:{seed}:{index}").shuffle(triples)
    return triples


def cli_order(seed: int, block: int) -> list[str]:
    """The names of the CLI mix, shuffled for block ``block`` under ``seed``."""
    names = [name for name, _ in CLI_MIX]
    random.Random(f"cli:{seed}:{block}").shuffle(names)
    return names


# ------------------------------------------------------------ expression corpus
#
# A tree is a nested tuple: ("o", n), ("bundle", rank, c1, c2, c3),
# ("cat", c1, c2), ("twist", t, n), ("dual", t), ("tensor", a, b),
# ("sum", a, b).  The text is rendered from the tree, so the reference in
# reference.py evaluates the tree without going through the program's parser.

_TWISTS = (-3, -2, -1, 1, 2, 3)


def _leaf(rng: random.Random, r: int, cap: int) -> tuple:
    kinds = ["o", "line"]
    if cap >= 2:
        kinds.append("rank2")
        if r == 5:
            kinds.append("cat")
    if cap >= 3:
        kinds.append("rank3")
    kind = rng.choice(kinds)
    if kind == "o":
        return ("o", rng.randint(-3, 3))
    if kind == "line":
        return ("bundle", 1, rng.randint(-3, 3), 0, 0)
    if kind == "rank2":
        return ("bundle", 2, rng.randint(-3, 3), rng.randint(-4, 12), 0)
    if kind == "cat":
        return ("cat", *rng.choice(CATALOG_PAIRS))
    return ("bundle", 3, rng.randint(-3, 3), rng.randint(-4, 12), rng.randint(-6, 6))


def _node(rng: random.Random, r: int, depth: int, cap: int) -> tuple[tuple, int]:
    """A random tree of at most ``depth`` operators and rank at most ``cap``."""
    if depth == 0:
        leaf = _leaf(rng, r, cap)
        return leaf, 1 if leaf[0] == "o" else (2 if leaf[0] == "cat" else leaf[1])
    op = rng.choice(("twist", "dual", "tensor", "sum"))
    if op == "sum" and cap < 2:
        op = "twist"
    if op in ("twist", "dual"):
        inner, rank = _node(rng, r, depth - 1, cap)
        if op == "dual":
            return ("dual", inner), rank
        return ("twist", inner, rng.choice(_TWISTS)), rank
    if op == "tensor":
        left, lrank = _node(rng, r, depth - 1, cap)
        right, rrank = _node(rng, r, rng.randint(0, depth - 1), cap // lrank)
        return ("tensor", left, right), lrank * rrank
    left, lrank = _node(rng, r, depth - 1, cap - 1)
    right, rrank = _node(rng, r, rng.randint(0, depth - 1), cap - lrank)
    return ("sum", left, right), lrank + rrank


_PRECEDENCE = {"sum": 1, "tensor": 2}


def _operand(tree: tuple, at_least: int) -> str:
    text = render(tree)
    return f"({text})" if _PRECEDENCE.get(tree[0], 3) < at_least else text


def render(tree: tuple) -> str:
    """The expression-language text of a tree, with only the needed parentheses."""
    kind = tree[0]
    if kind == "o":
        return f"o({tree[1]})"
    if kind == "bundle":
        _, rank, c1, c2, c3 = tree
        return f"bundle({rank},{c1},{c2},{c3})" if c3 else f"bundle({rank},{c1},{c2})"
    if kind == "cat":
        return f"cat({tree[1]},{tree[2]})"
    if kind == "dual":
        return f"dual({render(tree[1])})"
    if kind == "twist":
        return f"{_operand(tree[1], 3)}({tree[2]})"
    if kind == "tensor":
        return f"{_operand(tree[1], 2)} * {_operand(tree[2], 3)}"
    return f"{_operand(tree[1], 1)} ++ {_operand(tree[2], 2)}"


def expr_chunk(seed: int, index: int, size: int = EXPR_CHUNK) -> list[tuple[int, str, str, tuple]]:
    """Unit ``index`` of the corpus: (degree, query, text, tree) per expression."""
    rng = random.Random(f"expr:{seed}:{index}")
    chunk = []
    for _ in range(size):
        r = 5 if rng.random() < 0.5 else rng.choice(OTHER_DEGREES)
        tree, _ = _node(rng, r, rng.randint(1, MAX_DEPTH), RANK_CAP)
        chunk.append((r, rng.choice(QUERIES), render(tree), tree))
    return chunk


def corpus_text(chunk: list[tuple[int, str, str, tuple]]) -> str:
    """One line per expression: degree, query and text, tab separated."""
    return "".join(f"{r}\t{query}\t{text}\n" for r, query, text, _ in chunk)
