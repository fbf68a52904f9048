"""The full-matrix alignment DP that ``flexud._align_integer_runs`` replaced,
kept as the reference the banded DP is tested against."""

from spokenud.flexud import MAX_RUN


def align_integer_runs(g_norm: list[str], s_norm: list[str]):
    """Suffix-cost DP over the two normalized form sequences.

    Returns the chosen steps as (action, gold_run, system_run) triples.
    Transition preference at equal cost: exact match, then the shorter of
    split/merge runs, then skipping gold, then skipping system.
    """
    m, n = len(g_norm), len(s_norm)
    INF = 10 ** 9
    cost = [[INF] * (n + 1) for _ in range(m + 1)]
    choice: list[list[tuple[str, int, int] | None]] = \
        [[None] * (n + 1) for _ in range(m + 1)]
    cost[m][n] = 0
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if i == m and j == n:
                continue
            options: list[tuple[int, int, str, int, int]] = []
            if i < m and j < n and g_norm[i] == s_norm[j]:
                options.append((cost[i + 1][j + 1], 0, "match", 1, 1))
            rank = 1
            for k in range(2, MAX_RUN + 1):
                if j + k <= n and g_norm[i:i + 1] != [""] and all(s_norm[j:j + k]):
                    if i < m and g_norm[i] == "".join(s_norm[j:j + k]):
                        options.append((cost[i + 1][j + k] + 1, rank,
                                        "system_split", 1, k))
                rank += 1
                if i + k <= m and s_norm[j:j + 1] != [""] and all(g_norm[i:i + k]):
                    if j < n and "".join(g_norm[i:i + k]) == s_norm[j]:
                        options.append((cost[i + k][j + 1] + 1, rank,
                                        "gold_split", k, 1))
                rank += 1
            if i < m:
                options.append((cost[i + 1][j] + 1, 98, "skip_gold", 1, 0))
            if j < n:
                options.append((cost[i][j + 1] + 1, 99, "skip_system", 0, 1))
            best = min(options, key=lambda o: (o[0], o[1]))
            cost[i][j] = best[0]
            choice[i][j] = best[2:]
    steps = []
    i = j = 0
    while (i, j) != (m, n):
        action, g_run, s_run = choice[i][j]
        steps.append((action, g_run, s_run))
        i += g_run
        j += s_run
    return steps
