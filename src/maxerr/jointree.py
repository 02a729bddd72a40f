"""Binary join tree construction.

The tree is built by fusion: variables are removed one at a time in an
elimination order, and the active scopes mentioning the current variable
are merged pairwise (always the pair with the smallest union) until one
remains, which then sheds the variable.  Every merge adds a fresh
cluster, so no cluster ever has more than three neighbors.  Afterwards
every cluster that holds no CPT and only forwards messages is dropped:
each leaf, and each cluster between two neighbors that every message
crosses with at most one reduction step.  The resulting tree satisfies
the running intersection property, and each network valuation is
attached to exactly one cluster covering its scope; every leaf holds
one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ErrorModelNet, VarClass
from .valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError


class InvalidOrderError(ValueError):
    pass


@dataclass(frozen=True)
class EliminationOrder:
    """A permutation of the variable ids ending in the maximized (input)
    variables."""

    order: tuple[int, ...]

    def validate(self, net: ErrorModelNet) -> None:
        if sorted(self.order) != list(range(net.n_vars)):
            raise InvalidOrderError("order is not a permutation of the %d variables"
                                    % net.n_vars)
        inputs = set(net.input_vars)
        if set(self.order[len(self.order) - len(inputs):]) != inputs:
            raise InvalidOrderError("input variables must occupy the trailing "
                                    "positions of the order")


def moral_graph(net: ErrorModelNet) -> dict[int, set[int]]:
    """Undirected adjacency: each CPT family becomes a clique."""
    adj: dict[int, set[int]] = {v.id: set() for v in net.vars}
    for cpt in net.cpts:
        fam = sorted(cpt.scope)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _count_fillin(adj: dict[int, set[int]], v: int) -> int:
    nb = sorted(adj[v])
    missing = 0
    for i, a in enumerate(nb):
        for b in nb[i + 1:]:
            if b not in adj[a]:
                missing += 1
    return missing


def _eliminate(adj: dict[int, set[int]], v: int) -> int:
    nb = adj.pop(v)
    for a in nb:
        adj[a].discard(v)
    nb = sorted(nb)
    for i, a in enumerate(nb):
        for b in nb[i + 1:]:
            adj[a].add(b)
            adj[b].add(a)
    return len(nb)


def _min_fill_pass(adj: dict[int, set[int]], pool: set[int]) -> list[int]:
    out = []
    while pool:
        v = min(pool, key=lambda u: (_count_fillin(adj, u), u))
        _eliminate(adj, v)
        pool.discard(v)
        out.append(v)
    return out


def choose_order(net: ErrorModelNet) -> EliminationOrder:
    """Greedy min-fill order, restricted so inputs are eliminated last.

    Delaying the maximized variables keeps the collect schedules rooted
    at the inputs' prior clusters close to sum-before-max, which makes the
    search bounds tight.  Ties break on the lowest variable id.
    """
    adj = moral_graph(net)
    inputs = {v.id for v in net.vars if v.klass is VarClass.INPUT}
    rest = {v.id for v in net.vars if v.klass is not VarClass.INPUT}
    order = _min_fill_pass(adj, rest) + _min_fill_pass(adj, inputs)
    return EliminationOrder(tuple(order))


def order_width(net: ErrorModelNet, order: EliminationOrder | tuple[int, ...]) -> int:
    """Largest neighbor set met while eliminating along the order."""
    seq = order.order if isinstance(order, EliminationOrder) else tuple(order)
    adj = moral_graph(net)
    return max(_eliminate(adj, v) for v in seq)


@dataclass
class Cluster:
    id: int
    scope: frozenset[int]

    def __repr__(self):
        return "C%d%s" % (self.id, sorted(self.scope))


class BinaryJoinTree:
    def __init__(self, clusters: list[Cluster], edges: list[tuple[int, int]],
                 attach: dict[int, int], scope_key):
        self.clusters = clusters
        self.edges = edges
        self.attach = attach        # CPT child var id -> cluster id
        self.neighbors: list[list[int]] = [[] for _ in clusters]
        for a, b in edges:
            self.neighbors[a].append(b)
            self.neighbors[b].append(a)
        for nb in self.neighbors:
            nb.sort()
        self.width = max((len(c.scope) for c in clusters), default=0)
        self._scope_key = scope_key  # for compatibility checks against a net
        # compiled lazily by propagators: the numbered directed edges, and
        # per map_vars {edge id or (read cluster, kept variables): plan}
        self.schedule = None
        self.plans: dict = {}

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def compatible(self, net: ErrorModelNet) -> bool:
        """True when ``net`` has the same CPT scopes this tree was built
        from (same circuit, any eps), so valuations can be re-bound."""
        return _net_scope_key(net) == self._scope_key

    def describe(self, net: ErrorModelNet) -> str:
        def names(s):
            return ",".join(sorted(net.vars[v].name for v in s))

        lines = ["clusters: %d  width: %d" % (self.n_clusters, self.width)]
        for c in self.clusters:
            att = [v for v, cid in self.attach.items() if cid == c.id]
            lines.append("  C%-3d {%s}%s" % (
                c.id, names(c.scope),
                ("  <- phi(%s)" % names(att)) if att else ""))
        lines.append("edges: " + " ".join("%d-%d" % e for e in self.edges))
        return "\n".join(lines)


def _net_scope_key(net: ErrorModelNet):
    return tuple(tuple(sorted(c.scope)) for c in net.cpts)


def build_tree(net: ErrorModelNet, order: EliminationOrder | None = None,
               width_limit: int = DEFAULT_WIDTH_LIMIT) -> BinaryJoinTree:
    """Construct a binary join tree for the network.

    A variable's queries root at, and its evidence enters at, the
    cluster its CPT is attached to (``tree.attach``).  Every leaf holds a
    CPT, and a cluster without one is kept only where some message
    through it takes two reduction steps.  Raises WidthLimitError when
    the largest cluster would exceed ``width_limit`` variables.
    """
    if order is None:
        order = choose_order(net)
    order.validate(net)

    scopes: list[frozenset[int]] = []
    attach: dict[int, int] = {}
    seen: dict[frozenset[int], int] = {}

    def add_node(scope: frozenset[int]) -> int:
        scopes.append(scope)
        return len(scopes) - 1

    for cpt in net.cpts:
        scope = cpt.scope
        if scope not in seen:
            seen[scope] = add_node(scope)
        attach[cpt.child.id] = seen[scope]
    # Every variable's singleton still enters the fusion, though _assemble
    # drops the gate ones: they steer which pairs merge, and fusing without
    # them reorders products, which moves answers by an ulp (a tie can flip).
    for v in net.vars:
        s = frozenset((v.id,))
        if s not in seen:
            seen[s] = add_node(s)

    active = set(range(len(scopes)))
    edges: list[tuple[int, int]] = []
    remaining = set(order.order)

    for y in order.order:
        if len(active) <= 1:
            break
        gamma_y = sorted(n for n in active if y in scopes[n])
        while len(gamma_y) > 1:
            best = None
            for i, a in enumerate(gamma_y):
                for b in gamma_y[i + 1:]:
                    u = scopes[a] | scopes[b]
                    key = (len(u), a, b)
                    if best is None or key < best[0]:
                        best = (key, a, b, u)
            _, a, b, u = best
            if len(u) > width_limit:
                raise WidthLimitError(len(u), width_limit,
                                      "largest clique while eliminating variable %d" % y)
            k = add_node(frozenset(u))
            edges.append((a, k))
            edges.append((b, k))
            active.discard(a)
            active.discard(b)
            active.add(k)
            gamma_y = [n for n in gamma_y if n not in (a, b)] + [k]
        top = gamma_y[0]
        if len(remaining) > 1:
            shed = add_node(scopes[top] - {y})
            edges.append((top, shed))
            active.add(shed)
        active = {n for n in active if y not in scopes[n]}
        remaining.discard(y)

    tree = _assemble(scopes, edges, attach, _net_scope_key(net))
    if tree.width > width_limit:
        raise WidthLimitError(tree.width, width_limit, "largest cluster in the tree")
    return tree


def _assemble(scopes, edges, attach, scope_key) -> BinaryJoinTree:
    n = len(scopes)
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    # Bridge disconnected pieces (a circuit can fall into independent
    # cones).  An edge between scope-disjoint clusters carries a scalar
    # message and cannot break the running intersection property; hook
    # each extra component to the first by its lowest-degree node.
    comp = [-1] * n
    reps: list[int] = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        reps.append(s)
        stack = [s]
        comp[s] = s
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = s
                    stack.append(w)
    for rep in reps[1:]:
        a = min((u for u in range(n) if comp[u] == reps[0] and len(adj[u]) < 3),
                key=lambda u: (len(adj[u]), u))
        b = min((u for u in range(n) if comp[u] == rep and len(adj[u]) < 3),
                key=lambda u: (len(adj[u]), u))
        adj[a].add(b)
        adj[b].add(a)
        for u in range(n):
            if comp[u] == rep:
                comp[u] = reps[0]

    # Drop every cluster that holds no CPT and only forwards messages: a
    # leaf, which only ever sends the unit, or a relay between x and y
    # that every message crosses with at most one reduction step (for
    # each way x -> y, scope[x] <= scope[u] or scope[x] & scope[u] <=
    # scope[y]).  A relay's neighbors are joined directly; by the running
    # intersection property the direct message is the same table,
    # computed by the same plan.  (x and y may then list each other at
    # another place than the relay, so a product over all their inbound
    # messages can change order and a cluster belief move by an ulp or
    # two.)  A drop can make a neighbor a leaf or a relay, so it is
    # checked again.
    holders = set(attach.values())
    alive = [True] * n

    def forwards(u: int) -> bool:
        if u in holders or len(adj[u]) > 2:
            return False
        if len(adj[u]) < 2:
            return True
        x, y = adj[u]
        return all(scopes[a] <= scopes[u] or scopes[a] & scopes[u] <= scopes[b]
                   for a, b in ((x, y), (y, x)))

    todo = list(range(n - 1, -1, -1))
    while todo:
        u = todo.pop()
        if alive[u] and forwards(u):
            alive[u] = False
            for w in adj[u]:
                adj[w].discard(u)
                adj[w].update(adj[u] - {w})
            todo += sorted(adj[u])

    relabel = {}
    clusters: list[Cluster] = []
    for old in range(n):
        if alive[old]:
            relabel[old] = len(clusters)
            clusters.append(Cluster(len(clusters), scopes[old]))
    new_edges = sorted({(min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                        for a in range(n) if alive[a] for b in adj[a]})
    new_attach = {v: relabel[c] for v, c in attach.items()}
    return BinaryJoinTree(clusters, new_edges, new_attach, scope_key)


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
    for c in tree.clusters:
        if len(tree.neighbors[c.id]) > 3:
            bad.append("cluster %d has degree %d" % (c.id, len(tree.neighbors[c.id])))
    for v in (v.id for v in net.vars):
        members = [c.id for c in tree.clusters if v in c.scope]
        if not members:
            bad.append("variable %d in no cluster" % v)
            continue
        root = members[0]
        reach = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in tree.neighbors[u]:
                if w not in reach and v in tree.clusters[w].scope:
                    reach.add(w)
                    stack.append(w)
        if reach != set(members):
            bad.append("running intersection fails for variable %d" % v)
    holders = set(tree.attach.values())
    for c in tree.clusters:
        if len(tree.neighbors[c.id]) <= 1 and c.id not in holders:
            bad.append("leaf cluster %d holds no CPT" % c.id)
    for cpt in net.cpts:
        cid = tree.attach.get(cpt.child.id)
        if cid is None:
            bad.append("CPT of variable %d unattached" % cpt.child.id)
        elif not cpt.scope <= tree.clusters[cid].scope:
            bad.append("CPT of variable %d attached to non-covering cluster %d"
                       % (cpt.child.id, cid))
    return bad
