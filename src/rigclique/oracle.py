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

    One branch and bound (Tomita and Seki's MCQ) finds the clique number and
    a witness clique from the whole vertex set: candidates are greedily
    colored, each color peeled from the highest id down, and tried from the
    highest color down, the lowest id first within a color, until size plus
    color cannot beat the best. A candidate set colored with one color per
    vertex is a clique, so its node is a leaf: each vertex's peel removed
    every candidate after it, so each is adjacent to all later ones, and the
    set joined to the branch vertices above it is the largest clique below.
    A dive into one label thus costs one node, not one per vertex. A scan
    then walks the vertices in id order, keeping each that extends the
    vertices kept so far to a maximum clique: a witness member at once, any
    other vertex only when a search of its remaining neighbours finds the
    rest, which becomes the witness. A search stops at its first clique
    that reaches its target: all n vertices for the first, a maximum clique
    for the scan's. Searches run on explicit stacks, so depth is not limited
    by Python's recursion limit, and share one node budget, charged once per
    node colored; exceeding it raises SearchBudgetExceeded. There is no
    incumbent: the search stays a reference independent of the labels and
    of the quotient solver.
    """
    if g.n == 0:
        return ()
    bits = g.bits
    budget = node_budget
    # ~bits[v] keeps v itself, so color_sorted clears v with one XOR. It is
    # no wider than bits[v], where ~(bits[v] | 1 << v) would be v bits wide.
    nots = [~row for row in bits]

    def color_sorted(pmask: int) -> list[tuple[int, int]]:
        # Charge one node, then greedily color the candidate set; output is
        # (vertex, color) with colors nondecreasing, ids descending within
        # a color, so the lowest id of a color is branched on first.
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceeded(
                f"maximum-clique search exceeded node budget {node_budget}")
        out: list[tuple[int, int]] = []
        color = 0
        rest = pmask
        while rest:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                out.append((v, color))
                bit = 1 << v
                avail = (avail ^ bit) & nots[v]
                rest ^= bit
        return out

    witness: set[int] = set()

    def search(pmask: int, best: int, target: int) -> int:
        # The size of the largest clique in pmask, or of the first found
        # with target or more vertices, if it has more than best; else best.
        # Each clique found with more becomes the witness.
        nonlocal witness
        # frame: [clique size so far, candidates left, the vertex whose
        #         branch made it, the (vertex, color) pairs not yet branched
        #         on, None until the frame is first visited]
        stack = [[0, pmask, -1, None]]
        while stack:
            frame = stack[-1]
            size, pmask, _, colored = frame
            if colored is None:
                colored = frame[3] = color_sorted(pmask)
                if colored and colored[-1][1] == len(colored):
                    # one vertex per color: pmask is a clique, so a leaf
                    if size + len(colored) > best:
                        best = size + len(colored)
                        witness = {u for u, _ in colored}.union(f[2] for f in stack[1:])
                        if best >= target:
                            break
                    stack.pop()
                    continue
            if not colored or size + colored[-1][1] <= best:
                stack.pop()  # everything earlier has a color no higher
                continue
            v = colored.pop()[0]
            frame[1] = pmask ^ (1 << v)
            size += 1
            sub = pmask & bits[v]
            if sub and size < target:
                # every clique below is larger, so only a leaf is a witness
                stack.append([size, sub, v, None])
            elif size > best:
                best, witness = size, {v}.union(f[2] for f in stack[1:])
                if best >= target:
                    break
        return best

    # The chosen vertices and the witness members not yet scanned form a
    # maximum clique.
    pmask = (1 << g.n) - 1
    best = search(pmask, 0, g.n)
    chosen: list[int] = []
    while True:
        v = (pmask & -pmask).bit_length() - 1
        pmask ^= 1 << v
        need = best - len(chosen) - 1
        if v not in witness and need:
            sub = pmask & bits[v]
            if sub.bit_count() < need or search(sub, need - 1, need) < need:
                continue
        chosen.append(v)
        if not need:
            return tuple(chosen)
        pmask &= bits[v]


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

    Vertex v is node v and label i node n + i. Only labelled vertices and
    non-empty labels get a node: the others have no incidences, so they lie
    on no cycle and in no neighbor list, and leaving them out changes no
    step the DFS takes. Neighbor lists are ascending.
    """
    n = rep.n
    adj: dict[int, list[int]] = {}
    for i, mask in enumerate(rep.masks):
        if mask:
            members = adj[n + i] = _members(mask)
            for v in members:
                adj.setdefault(v, []).append(n + i)

    # peel to the 2-core; a cycle survives peeling
    degree = {x: len(ls) for x, ls in adj.items()}
    in_core = set(adj)
    stack = [x for x, d in degree.items() if d <= 1]
    while stack:
        x = stack.pop()
        if x not in in_core:
            continue
        in_core.discard(x)
        for y in adj[x]:
            if y in in_core:
                degree[y] -= 1
                if degree[y] <= 1:
                    stack.append(y)
    if not in_core:
        return CYCLE_NONE, None

    steps = step_budget
    for start in sorted(in_core):
        path = [start]
        on_path = {start}
        iters = [iter(adj[start])]
        while iters:
            stepped = False
            for w in iters[-1]:
                steps -= 1
                if steps < 0:
                    return CYCLE_UNKNOWN, None
                if w < start or w not in in_core:
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
