"""Exact reference algorithms, independent of the quotient solver.

Maximum clique here is a branch-and-bound search over the vertex bitmasks
of the whole graph. It and the quotient pipeline never call each other, so
the two can be checked against each other. Budgets make every search refuse
loudly instead of running away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, LabelRepresentation, _members

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_MAX_CLIQUES = 500_000
DEFAULT_CYCLE_STEPS = 1_000_000

CYCLE_FOUND = "found"
CYCLE_NONE = "none"
CYCLE_UNKNOWN = "unknown"


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of its node or emission budget."""


def exact_max_clique(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...]:
    """Lexicographically smallest maximum clique, as a sorted vertex tuple.

    Phase one finds the clique number by one branch and bound from the whole
    vertex set (Tomita and Seki's MCQ): candidates are greedily colored in
    id order and tried from the highest color down, until size plus color
    cannot beat the best. Phase two rebuilds the lexicographically first
    clique of that size by ascending-id extension under the same bound.
    Both phases run on explicit stacks, so depth is not limited by Python's
    recursion limit, and share one node budget, charged once per node;
    exceeding it raises SearchBudgetExceeded.
    """
    if g.n == 0:
        return ()
    bits = g.bits
    budget = node_budget

    def charge() -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceeded(
                f"maximum-clique search exceeded node budget {node_budget}")

    def color_sorted(pmask: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set; output is (vertex, color)
        # with colors nondecreasing, ids ascending within a color.
        out: list[tuple[int, int]] = []
        color = 0
        rest = pmask
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                out.append((v, color))
                avail &= ~(bits[v] | low)
                rest ^= low
        return out

    # Phase one. A frame is [clique size so far, candidates left, their
    # coloring, next index from the end]; a node is charged when its frame
    # is made. The root frame holds every vertex, colored in id order.
    best = 0
    full = (1 << g.n) - 1
    charge()
    stack = [[0, full, color_sorted(full), g.n]]
    while stack:
        frame = stack[-1]
        rsize, pmask, colored, i = frame
        i -= 1
        if i < 0 or rsize + colored[i][1] <= best:
            stack.pop()  # everything earlier has a color no higher
            continue
        v = colored[i][0]
        frame[1] = pmask & ~(1 << v)
        frame[3] = i
        sub = pmask & bits[v]
        if sub:
            charge()
            colored = color_sorted(sub)
            stack.append([rsize + 1, sub, colored, len(colored)])
        elif rsize + 1 > best:
            best = rsize + 1

    # Phase two: stack[d] holds the candidates not yet tried after the d
    # vertices of prefix. Taking v charges the child node, which is dropped
    # at once unless enough candidates and colors remain to reach best.
    charge()  # the root, which can always reach best, so is never popped
    prefix: list[int] = []
    stack = [full]
    while True:
        need = best - len(prefix)
        pmask = stack[-1]
        if pmask.bit_count() < need:
            stack.pop()
            prefix.pop()
            continue
        low = pmask & -pmask
        v = low.bit_length() - 1
        stack[-1] = pmask ^ low
        prefix.append(v)
        charge()
        if need == 1:
            return tuple(prefix)
        sub = stack[-1] & bits[v]
        if sub.bit_count() >= need - 1 and color_sorted(sub)[-1][1] >= need - 1:
            stack.append(sub)
        else:
            prefix.pop()


def enumerate_maximal_cliques(g: Graph,
                              max_cliques: int = DEFAULT_MAX_CLIQUES) -> list[tuple[int, ...]]:
    """Every maximal clique exactly once, as sorted vertex tuples.

    Bron-Kerbosch with a greedy pivot (adjacent to the most candidates,
    smallest id on ties); emission order is deterministic. It runs on an
    explicit stack, so clique size is not limited by Python's recursion
    limit. Finding clique max_cliques + 1 raises SearchBudgetExceeded.
    """
    out: list[tuple[int, ...]] = []
    if g.n == 0:
        return out
    bits = g.bits

    def frame(p: int, x: int, v: int) -> list[int]:
        # [candidates, excluded, branches left, the vertex that opened it];
        # the branches are the candidates the pivot does not see, ascending.
        scan = p | x
        pivot = -1
        pivot_count = -1
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            scan ^= low
            count = (p & bits[u]).bit_count()
            if count > pivot_count:
                pivot_count, pivot = count, u
        return [p, x, p & ~bits[pivot], v]

    stack = [frame((1 << g.n) - 1, 0, -1)]
    while stack:
        top = stack[-1]
        p, x, cand, _ = top
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        top[0], top[1], top[2] = p ^ low, x | low, cand ^ low
        sub_p, sub_x = p & bits[v], x & bits[v]
        if sub_p:
            stack.append(frame(sub_p, sub_x, v))
        elif not sub_x:
            if len(out) >= max_cliques:
                raise SearchBudgetExceeded(
                    f"maximal-clique enumeration exceeded budget {max_cliques}")
            out.append(tuple(sorted([f[3] for f in stack[1:]] + [v])))
    return out


@dataclass(frozen=True)
class LabeledCycle:
    """Cyclic vertex sequence with k >= 3 distinct labels, labels[j] shared
    by vertices[j] and vertices[(j+1) % k]."""
    vertices: tuple[int, ...]
    labels: tuple[int, ...]


def check_labeled_cycle(rep: LabelRepresentation, cycle: LabeledCycle) -> None:
    """Raise ValueError unless cycle is a valid distinct-label cycle of rep."""
    k = len(cycle.vertices)
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    if len(cycle.labels) != k:
        raise ValueError("label count differs from vertex count")
    if len(set(cycle.vertices)) != k:
        raise ValueError("vertices are not distinct")
    if len(set(cycle.labels)) != k:
        raise ValueError("labels are not distinct")
    for j in range(k):
        v, w = cycle.vertices[j], cycle.vertices[(j + 1) % k]
        lab = cycle.labels[j]
        mask = rep.masks[lab] if 0 <= lab < rep.m else 0
        if min(v, w) < 0 or not (mask >> v) & (mask >> w) & 1:
            raise ValueError(f"label {lab} does not join vertices {v} and {w}")


def find_distinct_label_cycle(rep: LabelRepresentation,
                              step_budget: int = DEFAULT_CYCLE_STEPS
                              ) -> tuple[str, LabeledCycle | None]:
    """Search for a cycle of k >= 3 vertices joined by k distinct labels.

    Equivalent formulation: the vertex-label incidence graph contains a
    simple cycle of length >= 6 (a 2k-cycle alternates k vertices with k
    distinct witnessing labels; 4-cycles only say two vertices share two
    labels). The incidence graph is peeled to its 2-core first; an empty
    core means acyclic, hence ("none", None) immediately. Otherwise a DFS
    enumerates simple paths inside the core, rooted at each node that is the
    minimum of its cycle. Every neighbor step costs one unit of step_budget;
    exhausting it returns ("unknown", None), which is distinct from "none".
    """
    n, m = rep.n, rep.m
    total = n + m
    adj: list[list[int]] = [[] for _ in range(total)]  # ascending, by construction
    for i, mask in enumerate(rep.masks):
        for v in _members(mask):
            adj[v].append(n + i)
            adj[n + i].append(v)

    # peel to the 2-core; a cycle survives peeling
    degree = [len(ls) for ls in adj]
    in_core = [True] * total
    stack = [x for x in range(total) if degree[x] <= 1]
    while stack:
        x = stack.pop()
        if not in_core[x]:
            continue
        in_core[x] = False
        for y in adj[x]:
            if in_core[y]:
                degree[y] -= 1
                if degree[y] <= 1:
                    stack.append(y)
    core = [x for x in range(total) if in_core[x]]
    if not core:
        return CYCLE_NONE, None

    steps = step_budget
    for start in core:
        path = [start]
        on_path = {start}
        iters = [iter(adj[start])]
        while iters:
            stepped = False
            for w in iters[-1]:
                steps -= 1
                if steps < 0:
                    return CYCLE_UNKNOWN, None
                if w < start or not in_core[w]:
                    continue
                if w == start and len(path) >= 6:
                    return CYCLE_FOUND, _as_labeled_cycle(path, n)
                if w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                iters.append(iter(adj[w]))
                stepped = True
                break
            if not stepped:
                iters.pop()
                on_path.discard(path.pop())
    return CYCLE_NONE, None


def _as_labeled_cycle(path: list[int], n: int) -> LabeledCycle:
    # path alternates vertex and label nodes; rotate a vertex node to front
    if path[0] >= n:
        path = path[1:] + path[:1]
    vertices = tuple(path[0::2])
    labels = tuple(x - n for x in path[1::2])
    return LabeledCycle(vertices, labels)
