"""Binary join tree construction.

The tree is built by fusion.  Each CPT starts as a cluster over its
scope, and each cluster keeps a live scope: its scope minus the
variables already eliminated.  Variables are removed one at a time in an
elimination order.  The active clusters whose live scope holds the
current variable are merged pairwise, always the pair with the smallest
live union, into a fresh cluster over that union; the variable then
leaves the live scope of the one left.  The last pair of a merge that
nothing merges with again (the only two active clusters, or a pair with
no other live variable) is joined by a direct edge instead.  So every
cluster the fusion adds has three neighbors and every leaf holds a CPT.
Independent cones of a circuit end up as separate pieces.  A piece is
finished when its top cluster's live scope empties or its last pair is
joined directly, and the fusion records the piece's lowest cluster id
then; the pieces are chained in the order of those ids, by edges that
join clusters sharing no variable and carry scalar messages.  The tree
satisfies the running intersection property.

``choose_order`` is greedy min-fill on the moral graph.  Each candidate's
fill count is counted once and then kept up to date as variables are
eliminated, so a step costs work in the eliminated variable's
neighbourhood and its fill edges, not a recount of every candidate.

An elimination order is a plain tuple of variable ids (``choose_order``,
checked by ``check_order``), and a tree is plain data: ``tree.scopes``
holds each cluster's variables by cluster id, ``tree.edges`` the edges
as id pairs and ``tree.order`` the order it was built with.  Cluster
``v`` holds the CPT of variable ``v``, over that CPT's scope, for
``v < net.n_vars``; the clusters from ``net.n_vars`` up are the ones the
fusion adds, and hold no CPT.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations

from .model import ErrorModelNet
from .valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError


class InvalidOrderError(ValueError):
    pass


def check_order(net: ErrorModelNet, order: tuple[int, ...]) -> None:
    """Raise InvalidOrderError unless ``order`` is a permutation of the
    variable ids ending in the input variables."""
    if sorted(order) != list(range(net.n_vars)):
        raise InvalidOrderError("order is not a permutation of the %d variables"
                                % net.n_vars)
    inputs = set(net.input_vars)
    if set(order[len(order) - len(inputs):]) != inputs:
        raise InvalidOrderError("input variables must occupy the trailing "
                                "positions of the order")


def _link(adj: dict[int, set[int]], vs) -> None:
    for a, b in combinations(vs, 2):
        adj[a].add(b)
        adj[b].add(a)


def moral_graph(net: ErrorModelNet) -> dict[int, set[int]]:
    """Undirected adjacency: each CPT family becomes a clique."""
    adj: dict[int, set[int]] = {v.id: set() for v in net.vars}
    for cpt in net.cpts:
        _link(adj, cpt.scope)
    return adj


def _count_fillin(adj: dict[int, set[int]], v: int) -> int:
    return sum(b not in adj[a] for a, b in combinations(adj[v], 2))


def _eliminate(adj: dict[int, set[int]], v: int) -> int:
    nb = adj.pop(v)
    for a in nb:
        adj[a].discard(v)
    _link(adj, nb)
    return len(nb)


def _min_fill_pass(adj: dict[int, set[int]], pool: set[int]) -> list[int]:
    """Eliminate every variable of ``pool`` from ``adj``, fewest fill
    edges first and the lowest id on a tie, and return them in that
    order; ``pool`` is left empty.

    Each pool variable's fill count is kept, with a heap on (fill, id)
    whose stale entries are skipped; see ``choose_order`` for the
    update rule."""
    fill = {u: _count_fillin(adj, u) for u in pool}
    heap = [(f, u) for u, f in fill.items()]
    heapify(heap)
    out = []
    while pool:
        f, v = heappop(heap)
        if v not in pool or f != fill[v]:
            continue
        pool.discard(v)
        out.append(v)
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
            if a in pool:       # a's unjoined pairs with v are gone
                fill[a] -= len(adj[a] - nb)
        # each fill edge moves the counts on the graph as it stands
        # before that edge is added
        for a, b in combinations(nb, 2):
            if b in adj[a]:
                continue
            for u in adj[a] & adj[b] & pool:
                fill[u] -= 1
                heappush(heap, (fill[u], u))
            if a in pool:
                fill[a] += len(adj[a] - adj[b])
            if b in pool:
                fill[b] += len(adj[b] - adj[a])
            adj[a].add(b)
            adj[b].add(a)
        for u in nb & pool:
            heappush(heap, (fill[u], u))
    return out


def choose_order(net: ErrorModelNet) -> tuple[int, ...]:
    """Greedy min-fill order, restricted so inputs are eliminated last.

    Eliminating every gate and comparator variable first makes the
    inputs of each output's fan-in cone a clique, so one cluster holds
    each cone (``mapsearch``).  Ties break on the lowest variable id.

    A candidate's fill is the number of pairs of its neighbours that are
    not adjacent.  Each is counted once per pass and kept in a heap on
    (fill, id) whose stale entries are skipped.  Eliminating v moves a
    count only through v's edges and its fill edges: each neighbour of v
    loses its pairs with v that had no edge, and each fill edge (a, b)
    takes one from every common neighbour of a and b and adds to a the
    neighbours of a not adjacent to b (and to b likewise).  So a step
    costs O((deg(v) + fill(v)) * deg) set work plus a heap push per
    count it moves, where recounting every candidate costs O(n * deg^2).
    """
    adj = moral_graph(net)
    inputs = set(net.input_vars)
    rest = set(range(net.n_vars)) - inputs
    return tuple(_min_fill_pass(adj, rest) + _min_fill_pass(adj, inputs))


def order_width(net: ErrorModelNet, order: tuple[int, ...]) -> int:
    """Largest neighbor set met while eliminating along the order."""
    adj = moral_graph(net)
    return max(_eliminate(adj, v) for v in order)


class BinaryJoinTree:
    def __init__(self, scopes: list[frozenset[int]], edges: list[tuple[int, int]]):
        self.scopes = scopes        # cluster id -> its variables
        self.edges = edges
        self.neighbors: list[list[int]] = [[] for _ in scopes]
        for a, b in edges:
            self.neighbors[a].append(b)
            self.neighbors[b].append(a)
        for nb in self.neighbors:
            nb.sort()
        self.width = max(map(len, scopes), default=0)
        self.order, self.width_limit = None, DEFAULT_WIDTH_LIMIT    # set by build_tree
        # compiled lazily by propagators: the numbered directed edges with
        # the forwarded ones, and {edge id or (read cluster, kept variables):
        # plan}; by worst-vector walks: per tuple of evidenced variables, their
        # cones, and per cone, its holding cluster
        self.schedule = None
        self.plans: dict = {}
        self.cones: dict = {}
        self.holders: dict = {}

    @property
    def n_clusters(self) -> int:
        return len(self.scopes)

    def describe(self, net: ErrorModelNet) -> str:
        def names(s):
            return ",".join(sorted(net.vars[v].name for v in s))

        lines = ["clusters: %d  width: %d" % (self.n_clusters, self.width)]
        for cid, scope in enumerate(self.scopes):
            lines.append("  C%-3d {%s}%s" % (
                cid, names(scope),
                ("  <- phi(%s)" % net.vars[cid].name) if cid < net.n_vars else ""))
        lines.append("edges: " + " ".join("%d-%d" % e for e in self.edges))
        return "\n".join(lines)


def build_tree(net: ErrorModelNet, order: tuple[int, ...] | None = None,
               width_limit: int = DEFAULT_WIDTH_LIMIT) -> BinaryJoinTree:
    """Construct a binary join tree for the network.

    Cluster ``v`` is CPT ``v``'s, over its scope, and variable ``v``'s
    queries root at, and its evidence enters at, that cluster.  The
    fusion adds a cluster only to merge two others, so every leaf holds a
    CPT and every cluster without one has three neighbors.  The pieces
    (independent cones) are chained in ascending order of their lowest
    cluster ids.  A piece's lowest cluster is a CPT's, with at most one
    fusion edge, so the chain keeps every degree at three or less.
    Raises WidthLimitError when a cluster would exceed ``width_limit``
    variables, which ``tree.width_limit`` keeps for every table built on it.
    """
    if order is None:
        order = choose_order(net)
    check_order(net, order)

    scopes = [cpt.scope for cpt in net.cpts]
    live = list(scopes)      # each cluster's scope minus the eliminated variables
    low = list(range(len(scopes)))   # each cluster's piece's lowest cluster id
    active = set(range(len(scopes)))
    edges: list[tuple[int, int]] = []
    reps: list[int] = []     # the lowest cluster id of each finished piece

    for y in order:
        gamma = sorted(n for n in active if y in live[n])
        while len(gamma) > 1:
            _, a, b = min((len(live[a] | live[b]), a, b)
                          for i, a in enumerate(gamma) for b in gamma[i + 1:])
            u = live[a] | live[b]
            if len(gamma) == 2 and (len(active) == 2 or u == {y}):
                # nothing merges with this pair again: join it directly
                edges.append((a, b))
                reps.append(min(low[a], low[b]))
                active -= {a, b}
                gamma = []
                break
            if len(u) > width_limit:
                raise WidthLimitError(len(u), width_limit,
                                      "largest clique while eliminating variable %d" % y)
            k = len(scopes)
            scopes.append(u)
            live.append(u)
            low.append(min(low[a], low[b]))
            edges += [(a, k), (b, k)]
            active -= {a, b}
            active.add(k)
            gamma = [n for n in gamma if n not in (a, b)] + [k]
        for top in gamma:    # the cluster left holding y, unless joined directly
            live[top] = live[top] - {y}
            if not live[top]:
                active.discard(top)
                reps.append(low[top])

    reps.sort()
    edges += zip(reps, reps[1:])
    tree = BinaryJoinTree(scopes, sorted(edges))
    tree.order, tree.width_limit = order, width_limit
    if tree.width > width_limit:
        raise WidthLimitError(tree.width, width_limit, "largest cluster in the tree")
    return tree


def validate_tree(tree: BinaryJoinTree, net: ErrorModelNet) -> list[str]:
    """Structural invariant check; returns human-readable violations."""
    bad: list[str] = []
    n = tree.n_clusters
    if len(tree.edges) != n - 1:
        bad.append("edge count %d != clusters - 1" % len(tree.edges))
    seen = {0} if n else set()
    stack = [0] if n else []
    while stack:
        u = stack.pop()
        for w in tree.neighbors[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        bad.append("tree is not connected")
    for cid, nb in enumerate(tree.neighbors):
        if len(nb) > 3:
            bad.append("cluster %d has degree %d" % (cid, len(nb)))
    for v in range(net.n_vars):
        members = [cid for cid, scope in enumerate(tree.scopes) if v in scope]
        if not members:
            bad.append("variable %d in no cluster" % v)
            continue
        root = members[0]
        reach = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in tree.neighbors[u]:
                if w not in reach and v in tree.scopes[w]:
                    reach.add(w)
                    stack.append(w)
        if reach != set(members):
            bad.append("running intersection fails for variable %d" % v)
    for cid, nb in enumerate(tree.neighbors):
        if len(nb) <= 1 and cid >= net.n_vars:
            bad.append("leaf cluster %d holds no CPT" % cid)
    for v, cpt in enumerate(net.cpts):
        if v >= n or not cpt.scope <= tree.scopes[v]:
            bad.append("cluster %d is missing or does not cover its CPT" % v)
    return bad
