"""A deterministic guard on the alignment DP's work.

Spies on ``flexud._band_pass`` over fixed seeded long pairs and counts the
cells each pass computes. No pair may cost more cells than the earlier
widening rule (a symmetric band of w = 3·max(1, |m − n|), then, if its cost
d fails 3·d <= w, one symmetric pass of min(max(m, n), 3·d)), and the total
is pinned, so a band regression fails without timing anything.
"""

import random
from unittest import mock

from spokenud import flexud

from gen import random_sentence

# (pairs, tokens per gold sequence); one edit per 20 tokens, as in eval-long.
SHAPES = [(12, 60), (4, 200)]


def cells(m, n, lo, hi):
    """Cells (i, j), 0 <= i <= m, 0 <= j <= n, with -lo <= j - i <= hi."""
    return sum(min(n, i + hi) - max(0, i - lo) + 1 for i in range(m + 1))


def long_pair(rng, length):
    forms = []
    while len(forms) < length:
        sentence = random_sentence(rng, "w")
        forms += [t.form for t in sentence.tokens if not t.id.is_dotted]
    gold = forms[:length]
    system = list(gold)
    for _ in range(length // 20):
        p = rng.randrange(len(system) - 1)
        kind = rng.choice(["split", "merge", "drop", "insert", "change"])
        if kind == "split":
            system[p:p + 1] = [system[p][:1], system[p][1:]]
        elif kind == "merge":
            system[p:p + 2] = [system[p] + system[p + 1]]
        elif kind == "drop":
            del system[p]
        elif kind == "insert":
            system.insert(p, rng.choice(gold))
        else:
            system[p] += "x"
    return gold, system


def pairs():
    rng = random.Random(16)
    return [long_pair(rng, length) for count, length in SHAPES for _ in range(count)]


def work(gold, system):
    """Cells computed now, and under the earlier widening rule."""
    passes, band_pass = [], flexud._band_pass

    def spy(*args):
        result = band_pass(*args)
        passes.append((args[-2:], result[0]))
        return result

    with mock.patch.object(flexud, "_band_pass", spy):
        flexud._align_integer_runs(gold, system)
    m, n = len(gold), len(system)
    now = sum(cells(m, n, lo, hi) for (lo, hi), _ in passes)
    (w, _), d = passes[0]
    earlier = cells(m, n, w, w)
    if 3 * d > w and w < max(m, n):
        wide = min(max(m, n), 3 * d)
        earlier += cells(m, n, wide, wide)
    return now, earlier


def test_no_pair_costs_more_cells_than_the_symmetric_widening_rule():
    totals = [0, 0]
    for gold, system in pairs():
        now, earlier = work(gold, system)
        assert now <= earlier, (gold, system)
        totals[0] += now
        totals[1] += earlier
    # 59% of the earlier rule's cells.
    assert totals == [59304, 99986]
