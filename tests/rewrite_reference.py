"""An independent reference partition of bundle morphism chains.

It applies the documented rewrites literally to uncompacted unit chains and
joins every chain with each rewrite of it in a union-find:

- re-index: a unit (c, step, phi) becomes (k, step, thetabar_kc(step) phi)
  for every chart k holding its step;
- merge and re-split: an adjacent pair whose steps lie in a common chart k is
  moved into k and composed to psi. Every pair in chart k over a
  decomposition of the same walk into two unit steps, with a composite equal
  to psi, is a re-split of it; all of them meet in one node named by
  (k, walk, psi) and the chain around the pair;
- insertion or deletion of the neutral unit (canonical chart, zero step,
  identity decoration) at the source, a junction or the target of a chain.

The universe is every composable chain of at most MAX_UNITS units over walks
of at most MAX_STEPS steps. Only the coset arithmetic of the quotient, the
transported cocycle values and canonical objects come from the package;
nothing here uses its normal form.
"""

MAX_UNITS = 3
MAX_STEPS = 2


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent.get(x, x)
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class RewriteReference:
    def __init__(self, space):
        self.space, self.q, self.cover = space, space.q, space.cover
        steps = []
        if self.cover.identity_edges:
            steps += [("v", u) for u in sorted(self.cover.vertex_set)]
        for eid in sorted(self.cover.edge_by_id):
            steps.append(("e", eid, 1))
            if not self.cover.directed:
                steps.append(("e", eid, -1))
        self.walk_of = {st: self._walk(st) for st in steps}
        self.units = [(c, st, phi) for st in steps
                      for c in self.cover.charts_containing(self.walk_of[st].visited)
                      for phi in self.q.morphisms.reps]
        self.chains = self._enumerate()
        self.uf = UnionFind()
        for chain in self.chains:
            self._join_rewrites(chain)

    def _walk(self, st):
        if st[0] == "v":
            return self.cover.identity_walk(st[1])
        u, v = self.cover.edge_by_id[st[1]]
        return self.cover.walk(u if st[2] == 1 else v, [(st[1], st[2])])

    def source(self, unit):
        c, st, phi = unit
        return self.space.canonical_obj(c, self.walk_of[st].start, self.q.source[phi])

    def target(self, unit):
        c, st, phi = unit
        return self.space.canonical_obj(c, self.walk_of[st].end, self.q.target[phi])

    def walk_key(self, chain):
        return (self.walk_of[chain[0][1]].start,
                tuple(st[1:] for _c, st, _phi in chain if st[0] == "e"))

    def _enumerate(self):
        by_source = {}
        for unit in self.units:
            by_source.setdefault(self.source(unit), []).append(unit)
        out = [(unit,) for unit in self.units]
        frontier = list(out)
        for _ in range(MAX_UNITS - 1):
            frontier = [chain + (unit,) for chain in frontier
                        for unit in by_source.get(self.target(chain[-1]), ())
                        if len(self.walk_key(chain + (unit,))[1]) <= MAX_STEPS]
            out += frontier
        return out

    def _reindexed(self, k, c, walk, phi):
        if k == c:
            return phi
        return self.q.mor_product(self.space.thetabar(k, c, walk), phi)

    def _neutral(self, x):
        return (x.chart, ("v", x.vertex), self.q.identity_mor_at(x.fiber))

    def _join_rewrites(self, chain):
        uf, cover = self.uf, self.cover
        for p, (c, st, phi) in enumerate(chain):
            walk = self.walk_of[st]
            for k in cover.charts_containing(walk.visited):
                moved = (k, st, self._reindexed(k, c, walk, phi))
                uf.union(chain, chain[:p] + (moved,) + chain[p + 1:])
        for p in range(len(chain) - 1):
            (c1, st1, f1), (c2, st2, f2) = chain[p], chain[p + 1]
            w1, w2 = self.walk_of[st1], self.walk_of[st2]
            pair_walk = self.walk_key(chain[p:p + 2])
            for k in cover.charts_containing(w1.visited + w2.visited):
                psi = self.q.compose_of(self._reindexed(k, c2, w2, f2),
                                        self._reindexed(k, c1, w1, f1))
                uf.union(chain, ("split", chain[:p], chain[p + 2:], k, pair_walk, psi))
        if cover.identity_edges and len(chain) < MAX_UNITS:
            junctions = [self.source(chain[0])] + [self.target(u) for u in chain]
            for p, x in enumerate(junctions):
                uf.union(chain, chain[:p] + (self._neutral(x),) + chain[p:])

    def class_of(self, chain):
        return self.uf.find(chain)
