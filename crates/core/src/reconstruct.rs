//! Route reconstruction from verified mark chains (§4.2 "Traceback").
//!
//! The sink accumulates, over many packets, the relative order of marking
//! nodes: "whenever two consecutive MACs MAC_i, MAC_j within one packet are
//! verified as correct, V_i should be upstream to V_j" — recorded in the
//! order matrix `M[i, j]`. Given enough packets the matrix determines the
//! full upstream relation, from which the sink extracts either
//!
//! - a **most-upstream node** (loop-free case): a mole lies in its one-hop
//!   neighborhood, or
//! - a **loop** created by identity-swapping moles (§4.2, Fig. 2): the sink
//!   finds the node where the loop meets the line to the sink; a mole lies
//!   in that node's one-hop neighborhood (§5.3, Theorem 4).

use std::collections::{BTreeMap, BTreeSet};

use pnm_wire::NodeId;

use crate::store::Evidence;

/// What the reconstructed route implies about mole locations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Localization {
    /// No marks observed yet.
    NoEvidence,
    /// Loop-free route with a unique most-upstream node: a mole is within
    /// this node's one-hop neighborhood (including the node itself).
    MostUpstream(NodeId),
    /// Loop-free route but several nodes are candidates (order not yet
    /// fully resolved); each listed node is a possible most-upstream node.
    Ambiguous(Vec<NodeId>),
    /// Identity-swapping loop detected. Per §5.3, the sink finds the
    /// remaining nodes forming a line from the loop to itself; a mole is
    /// within the one-hop neighborhood of the **most upstream node of that
    /// line** (where the loop intersects the line).
    Loop {
        /// Nodes forming the loop (sorted).
        members: Vec<NodeId>,
        /// The most-upstream line node(s): line nodes fed only by the loop,
        /// never by another line node.
        junction: Vec<NodeId>,
    },
}

/// A [`Localization`] annotated with the evidence that backs it.
///
/// Lossy and corrupted delivery thins the sink's evidence: chains arrive
/// truncated (upstream marks lost) or not at all. The annotation makes
/// that thinness visible — `support` counts the verified chains whose
/// most-upstream element is the node(s) the localization names, and
/// `confidence` normalizes it by every chain observed. Callers that
/// require `min_support` direct observations get a **wider region instead
/// of a wrong node**: a most-upstream answer resting on fewer chains
/// degrades to [`Localization::Ambiguous`] over the head plus the
/// successors connected to it only by similarly thin edges.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnotatedLocalization {
    /// The (possibly widened) localization decision.
    pub localization: Localization,
    /// Verified chains whose most-upstream element is a node named by the
    /// localization.
    pub support: usize,
    /// All non-empty verified chains observed.
    pub chains: usize,
    /// `support / chains` (0.0 when no chains have been observed).
    pub confidence: f64,
}

impl AnnotatedLocalization {
    /// `true` when the underlying decision survived at full strength (was
    /// not widened and names a single most-upstream node).
    pub fn is_unequivocal(&self) -> bool {
        matches!(self.localization, Localization::MostUpstream(_))
    }
}

/// One suspected source region in a multi-source reconstruction
/// (see [`RouteReconstructor::source_regions`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceRegion {
    /// The most-upstream node of this region: a mole lies within its
    /// one-hop neighborhood.
    pub head: NodeId,
    /// Nodes reachable only through this region's head — the branch this
    /// source's traffic exclusively traverses before joining the trunk.
    pub exclusive_branch: Vec<NodeId>,
}

/// Incremental order-matrix route reconstructor.
///
/// # Examples
///
/// ```
/// use pnm_core::RouteReconstructor;
/// use pnm_wire::NodeId;
///
/// let mut r = RouteReconstructor::new();
/// r.observe_chain(&[NodeId(1), NodeId(2), NodeId(3)]);
/// r.observe_chain(&[NodeId(2), NodeId(4)]);
/// assert!(r.is_unequivocal());
/// assert_eq!(r.unequivocal_source(), Some(NodeId(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteReconstructor {
    /// edges[u] = set of v such that u was observed directly upstream of v
    /// (consecutive verified marks in some packet).
    edges: BTreeMap<u16, BTreeSet<u16>>,
    /// All node ids ever observed in a verified mark.
    nodes: BTreeSet<u16>,
    /// Count of chains observed (for diagnostics).
    chains_observed: usize,
    /// head_support[n] = chains whose most-upstream element was n — the
    /// direct evidence that n heads the route.
    head_support: BTreeMap<u16, usize>,
    /// Chains whose most-downstream element was n, as `(n, count)`, most
    /// support first: where the sink's resolve stage probes for a packet's
    /// lowest anonymous mark. Not evidence: [`Evidence`] carries no tails.
    tail_support: Vec<(u16, usize)>,
    /// upstream[v] = `(u, count)` for each u that appeared directly
    /// upstream of v in `count` chains, most support first: the edge
    /// support (thin edges mark order relations resting on little
    /// evidence), and where the resolve stage probes for the marker above
    /// v.
    upstream: BTreeMap<u16, Vec<(u16, usize)>>,
    /// Cached `unequivocal_source` result, invalidated whenever the graph
    /// gains a node or edge (empty = dirty). The locator queries after
    /// every packet, but most packets add nothing new once the route has
    /// been seen, so the cache saves an SCC + reachability pass per packet.
    /// A `OnceLock` (not a `Cell`) keeps the reconstructor — and every
    /// sink engine embedding it — `Sync`, so engines can be parked behind
    /// shared references on worker threads.
    cached_source: std::sync::OnceLock<Option<u16>>,
}

impl RouteReconstructor {
    /// Creates an empty reconstructor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one packet's verified chain (path order, upstream first).
    ///
    /// Consecutive pairs become order-matrix entries. A chain of one node
    /// still registers the node's existence (its mark was collected).
    pub fn observe_chain(&mut self, chain: &[NodeId]) {
        self.observe_chain_recording(chain, None);
    }

    /// [`RouteReconstructor::observe_chain`] that also records its growth
    /// into `delta`: nodes and edges new to the graph, and the head- and
    /// edge-support increments.
    pub(crate) fn observe_chain_recording(
        &mut self,
        chain: &[NodeId],
        mut delta: Option<&mut Evidence>,
    ) {
        if let (Some(head), Some(tail)) = (chain.first(), chain.last()) {
            self.chains_observed += 1;
            *self.head_support.entry(head.raw()).or_default() += 1;
            if let Some(d) = delta.as_deref_mut() {
                *d.head_support.entry(head.raw()).or_default() += 1;
            }
            add_support(&mut self.tail_support, tail.raw(), 1);
        }
        let mut changed = false;
        for n in chain {
            if self.nodes.insert(n.raw()) {
                changed = true;
                if let Some(d) = delta.as_deref_mut() {
                    d.nodes.insert(n.raw());
                }
            }
        }
        for w in chain.windows(2) {
            let (u, v) = (w[0].raw(), w[1].raw());
            if u != v {
                let new_edge = self.edges.entry(u).or_default().insert(v);
                changed |= new_edge;
                add_support(self.upstream.entry(v).or_default(), u, 1);
                if let Some(d) = delta.as_deref_mut() {
                    if new_edge {
                        d.edges.insert((u, v));
                    }
                    *d.edge_support.entry((u, v)).or_default() += 1;
                }
            }
        }
        if changed {
            self.cached_source = std::sync::OnceLock::new();
        }
    }

    /// Raw node set, for evidence export.
    pub(crate) fn nodes_set(&self) -> &BTreeSet<u16> {
        &self.nodes
    }

    /// Order-matrix edges flattened to `(u, v)` pairs, for evidence export.
    pub(crate) fn edge_pairs(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Raw head-support counts, for evidence export.
    pub(crate) fn head_support_map(&self) -> &BTreeMap<u16, usize> {
        &self.head_support
    }

    /// Raw edge-support counts keyed `(upstream, downstream)`, for
    /// evidence export.
    pub(crate) fn edge_support_map(&self) -> BTreeMap<(u16, u16), usize> {
        self.upstream
            .iter()
            .flat_map(|(&v, us)| us.iter().map(move |&(u, c)| ((u, v), c)))
            .collect()
    }

    /// The nodes chains placed directly upstream of `downstream`, with
    /// their support, most support first.
    pub(crate) fn upstream_of(&self, downstream: u16) -> &[(u16, usize)] {
        self.upstream.get(&downstream).map_or(&[], Vec::as_slice)
    }

    /// The nodes chains ended with, with their support, most support
    /// first. Only chains observed here count: merged evidence has none.
    pub(crate) fn tails(&self) -> &[(u16, usize)] {
        &self.tail_support
    }

    /// Merges an evidence value's route parts into this reconstructor —
    /// the inverse of the export accessors — recording the growth into
    /// `delta`, if given, as
    /// [`RouteReconstructor::observe_chain_recording`] does. Invalidates
    /// the cached source.
    ///
    /// The order matrix is a set union and support counts sum, so
    /// merging is commutative and associative: feeding a packet stream
    /// through any partition of reconstructors and installing each
    /// one's exported routes into one yields exactly the graph a single
    /// reconstructor would have built from the whole stream. This is
    /// what lets a sharded service combine per-shard route evidence into
    /// one global localization.
    pub(crate) fn install(&mut self, evidence: &Evidence, mut delta: Option<&mut Evidence>) {
        for &n in &evidence.nodes {
            if self.nodes.insert(n) {
                if let Some(d) = delta.as_deref_mut() {
                    d.nodes.insert(n);
                }
            }
        }
        for &(u, v) in &evidence.edges {
            if self.edges.entry(u).or_default().insert(v) {
                if let Some(d) = delta.as_deref_mut() {
                    d.edges.insert((u, v));
                }
            }
        }
        self.chains_observed += evidence.chains_observed;
        for (&n, &c) in &evidence.head_support {
            *self.head_support.entry(n).or_default() += c;
        }
        for (&(u, v), &c) in &evidence.edge_support {
            add_support(self.upstream.entry(v).or_default(), u, c);
        }
        // A zero count adds nothing, so it is never recorded as growth.
        if let Some(d) = delta {
            for (&n, &c) in evidence.head_support.iter().filter(|(_, &c)| c > 0) {
                *d.head_support.entry(n).or_default() += c;
            }
            for (&e, &c) in evidence.edge_support.iter().filter(|(_, &c)| c > 0) {
                *d.edge_support.entry(e).or_default() += c;
            }
        }
        self.cached_source = std::sync::OnceLock::new();
    }

    /// All nodes whose marks have been collected so far.
    pub fn observed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|&n| NodeId(n))
    }

    /// Number of distinct nodes observed.
    pub fn observed_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of chains fed in so far.
    pub fn chains_observed(&self) -> usize {
        self.chains_observed
    }

    /// Whether the order matrix records `upstream` directly upstream of
    /// `downstream`.
    pub fn has_edge(&self, upstream: NodeId, downstream: NodeId) -> bool {
        self.edges
            .get(&upstream.raw())
            .is_some_and(|s| s.contains(&downstream.raw()))
    }

    /// Nodes with no observed upstream neighbor — the candidate
    /// most-upstream set.
    pub fn most_upstream_candidates(&self) -> Vec<NodeId> {
        let mut has_upstream: BTreeSet<u16> = BTreeSet::new();
        for vs in self.edges.values() {
            has_upstream.extend(vs.iter().copied());
        }
        self.nodes
            .iter()
            .filter(|n| !has_upstream.contains(n))
            .map(|&n| NodeId(n))
            .collect()
    }

    /// Set of nodes reachable downstream from `start` (excluding `start`
    /// unless it lies on a cycle).
    fn reachable(&self, start: u16) -> BTreeSet<u16> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            if let Some(vs) = self.edges.get(&u) {
                for &v in vs {
                    if seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
        }
        seen
    }

    /// `true` when the sink can *unequivocally* identify the source region:
    /// a unique node with no observed upstream neighbor that is (transitively)
    /// upstream of every other observed node, and no loops.
    pub fn is_unequivocal(&self) -> bool {
        self.unequivocal_source().is_some()
    }

    /// The unequivocally identified most-upstream node, if any.
    ///
    /// The result is cached until the next observation changes the graph.
    pub fn unequivocal_source(&self) -> Option<NodeId> {
        self.cached_source
            .get_or_init(|| self.compute_unequivocal_source().map(|n| n.raw()))
            .map(NodeId)
    }

    fn compute_unequivocal_source(&self) -> Option<NodeId> {
        if !self.find_loops().is_empty() {
            return None;
        }
        let candidates = self.most_upstream_candidates();
        let [only] = candidates.as_slice() else {
            return None;
        };
        let reach = self.reachable(only.raw());
        // `only` must dominate every other observed node.
        let dominated = self
            .nodes
            .iter()
            .all(|&n| n == only.raw() || reach.contains(&n));
        dominated.then_some(*only)
    }

    /// Strongly connected components with more than one node (or a self
    /// loop) — the signature of identity-swapping attacks.
    pub fn find_loops(&self) -> Vec<Vec<NodeId>> {
        let sccs = self.tarjan_sccs();
        sccs.into_iter()
            .filter(|scc| {
                scc.len() > 1
                    || (scc.len() == 1
                        && self.edges.get(&scc[0]).is_some_and(|s| s.contains(&scc[0])))
            })
            .map(|scc| {
                let mut v: Vec<NodeId> = scc.into_iter().map(NodeId).collect();
                v.sort();
                v
            })
            .collect()
    }

    /// Full localization decision (§4.2 / §5.3).
    pub fn localize(&self) -> Localization {
        if self.nodes.is_empty() {
            return Localization::NoEvidence;
        }
        let loops = self.find_loops();
        if !loops.is_empty() {
            // All nodes on any loop; the rest form the "line" to the sink.
            let loop_nodes: BTreeSet<u16> = loops
                .iter()
                .flat_map(|l| l.iter().map(|n| n.raw()))
                .collect();
            let members = loops.into_iter().next().expect("non-empty");
            // The junction is the most upstream node of the line: a line
            // node fed by the loop but never by another line node (§5.3,
            // Fig. 2 — "where the loop intersects with the line"). With
            // probabilistic marking several line nodes can tie; all are
            // reported.
            let mut junction: Vec<NodeId> = self
                .nodes
                .iter()
                .filter(|n| !loop_nodes.contains(n))
                .filter(|&&n| {
                    let mut fed_by_loop = false;
                    let mut fed_by_line = false;
                    for (u, vs) in &self.edges {
                        if vs.contains(&n) {
                            if loop_nodes.contains(u) {
                                fed_by_loop = true;
                            } else if *u != n {
                                fed_by_line = true;
                            }
                        }
                    }
                    fed_by_loop && !fed_by_line
                })
                .map(|&n| NodeId(n))
                .collect();
            junction.sort();
            return Localization::Loop { members, junction };
        }
        match self.unequivocal_source() {
            Some(n) => Localization::MostUpstream(n),
            None => Localization::Ambiguous(self.most_upstream_candidates()),
        }
    }

    /// Chains whose most-upstream verified element was `node`.
    pub fn head_support(&self, node: NodeId) -> usize {
        self.head_support.get(&node.raw()).copied().unwrap_or(0)
    }

    /// Chains in which `upstream` appeared directly upstream of
    /// `downstream`.
    pub fn edge_support(&self, upstream: NodeId, downstream: NodeId) -> usize {
        self.upstream_of(downstream.raw())
            .iter()
            .find(|&&(u, _)| u == upstream.raw())
            .map_or(0, |&(_, c)| c)
    }

    /// [`RouteReconstructor::localize`] with a support annotation and a
    /// minimum-evidence requirement.
    ///
    /// A [`Localization::MostUpstream`] answer resting on fewer than
    /// `min_support` chains headed by that node is **widened** instead of
    /// reported as-is: the result becomes [`Localization::Ambiguous`] over
    /// the head plus its direct downstream successors. Under bursty loss
    /// or corruption the upstream-most marks are exactly the ones most
    /// often missing, so a thin head may merely be the first survivor of a
    /// longer route; the widened region keeps the answer honest — a
    /// superset covering the uncertainty — rather than pinning a single
    /// possibly-wrong node. `min_support <= 1` never widens (any named
    /// head has at least one supporting chain).
    pub fn localize_annotated(&self, min_support: usize) -> AnnotatedLocalization {
        let base = self.localize();
        let chains = self.chains_observed;
        let confidence = |support: usize| {
            if chains == 0 {
                0.0
            } else {
                support as f64 / chains as f64
            }
        };
        let named_support = |loc: &Localization| -> usize {
            let named: Vec<u16> = match loc {
                Localization::NoEvidence => Vec::new(),
                Localization::MostUpstream(n) => vec![n.raw()],
                Localization::Ambiguous(c) => c.iter().map(|n| n.raw()).collect(),
                Localization::Loop { members, junction } => members
                    .iter()
                    .chain(junction.iter())
                    .map(|n| n.raw())
                    .collect(),
            };
            named
                .iter()
                .map(|n| self.head_support.get(n).copied().unwrap_or(0))
                .sum()
        };
        if let Localization::MostUpstream(head) = base {
            let support = self.head_support(head);
            if support < min_support {
                let mut region = vec![head];
                if let Some(vs) = self.edges.get(&head.raw()) {
                    region.extend(vs.iter().map(|&v| NodeId(v)));
                }
                region.sort();
                region.dedup();
                return AnnotatedLocalization {
                    localization: Localization::Ambiguous(region),
                    support,
                    chains,
                    confidence: confidence(support),
                };
            }
            return AnnotatedLocalization {
                localization: base,
                support,
                chains,
                confidence: confidence(support),
            };
        }
        let support = named_support(&base);
        AnnotatedLocalization {
            localization: base,
            support,
            chains,
            confidence: confidence(support),
        }
    }

    /// Multi-source localization (§9 "future work", implemented here):
    /// when several moles inject from different points, their forwarding
    /// paths merge into a tree rooted at the sink. Each *source region* is
    /// a most-upstream candidate that (transitively) reaches the common
    /// downstream trunk. Returns one entry per candidate region, each
    /// unequivocal iff the candidate dominates every node only *it* can
    /// reach (its exclusive branch).
    ///
    /// On a loop-free graph with a single source this degenerates to
    /// [`RouteReconstructor::unequivocal_source`].
    pub fn source_regions(&self) -> Vec<SourceRegion> {
        if !self.find_loops().is_empty() {
            return Vec::new();
        }
        let candidates = self.most_upstream_candidates();
        let reaches: Vec<(NodeId, BTreeSet<u16>)> = candidates
            .iter()
            .map(|c| (*c, self.reachable(c.raw())))
            .collect();
        candidates
            .iter()
            .map(|&c| {
                let mine = reaches
                    .iter()
                    .find(|(n, _)| *n == c)
                    .map(|(_, r)| r)
                    .expect("candidate present");
                // The exclusive branch: nodes only this candidate reaches.
                let exclusive: BTreeSet<u16> = mine
                    .iter()
                    .filter(|&&v| {
                        reaches
                            .iter()
                            .filter(|(n, _)| *n != c)
                            .all(|(_, r)| !r.contains(&v))
                    })
                    .copied()
                    .collect();
                SourceRegion {
                    head: c,
                    exclusive_branch: exclusive.into_iter().map(NodeId).collect(),
                }
            })
            .collect()
    }

    /// Iterative Tarjan SCC over the observed order graph.
    fn tarjan_sccs(&self) -> Vec<Vec<u16>> {
        #[derive(Clone, Copy)]
        struct Meta {
            index: u32,
            lowlink: u32,
            on_stack: bool,
        }
        let mut meta: BTreeMap<u16, Meta> = BTreeMap::new();
        let mut index = 0u32;
        let mut stack: Vec<u16> = Vec::new();
        let mut sccs: Vec<Vec<u16>> = Vec::new();

        // Iterative DFS with an explicit call stack: (node, neighbor iter pos).
        for &root in &self.nodes {
            if meta.contains_key(&root) {
                continue;
            }
            let mut call: Vec<(u16, usize)> = vec![(root, 0)];
            meta.insert(
                root,
                Meta {
                    index,
                    lowlink: index,
                    on_stack: true,
                },
            );
            index += 1;
            stack.push(root);

            while let Some(&mut (u, ref mut pos)) = call.last_mut() {
                let neighbors: Vec<u16> = self
                    .edges
                    .get(&u)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                if *pos < neighbors.len() {
                    let v = neighbors[*pos];
                    *pos += 1;
                    match meta.get(&v) {
                        None => {
                            meta.insert(
                                v,
                                Meta {
                                    index,
                                    lowlink: index,
                                    on_stack: true,
                                },
                            );
                            index += 1;
                            stack.push(v);
                            call.push((v, 0));
                        }
                        Some(mv) if mv.on_stack => {
                            let v_index = mv.index;
                            let mu = meta.get_mut(&u).unwrap();
                            mu.lowlink = mu.lowlink.min(v_index);
                        }
                        Some(_) => {}
                    }
                } else {
                    call.pop();
                    let (u_low, u_index) = {
                        let m = meta[&u];
                        (m.lowlink, m.index)
                    };
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        let mp = meta.get_mut(&parent).unwrap();
                        mp.lowlink = mp.lowlink.min(u_low);
                    }
                    if u_low == u_index {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            meta.get_mut(&w).unwrap().on_stack = false;
                            scc.push(w);
                            if w == u {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }
}

/// Adds `count` chains to `id` in a most-support-first list (entering it
/// if absent), moving it ahead of every entry it now outnumbers. A known
/// `id` costs no allocation.
fn add_support(list: &mut Vec<(u16, usize)>, id: u16, count: usize) {
    let mut i = match list.iter().position(|&(n, _)| n == id) {
        Some(i) => i,
        None => {
            list.push((id, 0));
            list.len() - 1
        }
    };
    list[i].1 += count;
    while i > 0 && list[i - 1].1 < list[i].1 {
        list.swap(i - 1, i);
        i -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn empty_reconstructor() {
        let r = RouteReconstructor::new();
        assert_eq!(r.localize(), Localization::NoEvidence);
        assert!(!r.is_unequivocal());
        assert_eq!(r.observed_count(), 0);
    }

    #[test]
    fn single_chain_is_unequivocal() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2, 3, 4]));
        assert_eq!(r.unequivocal_source(), Some(NodeId(1)));
        assert_eq!(r.localize(), Localization::MostUpstream(NodeId(1)));
        assert_eq!(r.chains_observed(), 1);
    }

    #[test]
    fn partial_chains_merge() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 3]));
        r.observe_chain(&ids(&[3, 5]));
        r.observe_chain(&ids(&[2, 4]));
        // 1 upstream of 3,5; but 1 vs 2 unresolved -> ambiguous.
        assert!(!r.is_unequivocal());
        match r.localize() {
            Localization::Ambiguous(c) => assert_eq!(c, ids(&[1, 2])),
            other => panic!("expected ambiguous, got {other:?}"),
        }
        // Resolving 1 < 2 makes it unequivocal.
        r.observe_chain(&ids(&[1, 2]));
        assert_eq!(r.unequivocal_source(), Some(NodeId(1)));
    }

    #[test]
    fn transitive_domination_counts() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2]));
        r.observe_chain(&ids(&[2, 3]));
        r.observe_chain(&ids(&[3, 4]));
        // 1 never co-marked with 3 or 4, but closure gives 1 < 3 < 4.
        assert_eq!(r.unequivocal_source(), Some(NodeId(1)));
    }

    #[test]
    fn isolated_node_blocks_unequivocal() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2, 3]));
        // Node 9's mark seen alone, never ordered against the rest.
        r.observe_chain(&ids(&[9]));
        assert!(!r.is_unequivocal());
        match r.localize() {
            Localization::Ambiguous(c) => assert_eq!(c, ids(&[1, 9])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_detected_from_identity_swap() {
        // S and X swap identities: some packets say 2<3<4, others 4<2,
        // closing the cycle 2-3-4.
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[2, 3, 4, 5, 6]));
        r.observe_chain(&ids(&[4, 2]));
        let loops = r.find_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0], ids(&[2, 3, 4]));
        assert!(!r.is_unequivocal());
        match r.localize() {
            Localization::Loop { members, junction } => {
                assert_eq!(members, ids(&[2, 3, 4]));
                // The line is 5 → 6; node 5 is its most upstream node (fed
                // only by the loop), so the mole hides in 5's neighborhood.
                assert_eq!(junction, ids(&[5]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_loop_detected() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[7, 7]));
        // u == v pairs are ignored as edges, so no self loop recorded:
        assert!(r.find_loops().is_empty());
        // But a genuine 2-cycle is found.
        r.observe_chain(&ids(&[7, 8]));
        r.observe_chain(&ids(&[8, 7]));
        assert_eq!(r.find_loops(), vec![ids(&[7, 8])]);
    }

    #[test]
    fn two_disjoint_loops_all_found() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2]));
        r.observe_chain(&ids(&[2, 1]));
        r.observe_chain(&ids(&[5, 6]));
        r.observe_chain(&ids(&[6, 5]));
        let loops = r.find_loops();
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn has_edge_and_observed_nodes() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[10, 20]));
        assert!(r.has_edge(NodeId(10), NodeId(20)));
        assert!(!r.has_edge(NodeId(20), NodeId(10)));
        let observed: Vec<NodeId> = r.observed_nodes().collect();
        assert_eq!(observed, ids(&[10, 20]));
    }

    #[test]
    fn duplicate_observations_idempotent() {
        let mut r = RouteReconstructor::new();
        for _ in 0..100 {
            r.observe_chain(&ids(&[1, 2, 3]));
        }
        assert_eq!(r.observed_count(), 3);
        assert_eq!(r.unequivocal_source(), Some(NodeId(1)));
        assert_eq!(r.chains_observed(), 100);
    }

    #[test]
    fn long_chain_scc_is_iterative_not_recursive() {
        // A 5000-node chain would blow a recursive Tarjan's stack.
        let chain: Vec<NodeId> = (0..5000u16).map(NodeId).collect();
        let mut r = RouteReconstructor::new();
        r.observe_chain(&chain);
        assert!(r.find_loops().is_empty());
        assert_eq!(r.unequivocal_source(), Some(NodeId(0)));
    }

    #[test]
    fn big_cycle_detected() {
        let mut chain: Vec<NodeId> = (0..2000u16).map(NodeId).collect();
        chain.push(NodeId(0)); // close the cycle
        let mut r = RouteReconstructor::new();
        r.observe_chain(&chain);
        let loops = r.find_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 2000);
    }

    #[test]
    fn two_sources_merge_into_tree() {
        // Two injection paths 1→2→3→9→10 and 5→6→3→9→10 share the trunk
        // at node 3. Both heads are found, each with its own branch.
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2, 3, 9, 10]));
        r.observe_chain(&ids(&[5, 6, 3, 9]));
        let regions = r.source_regions();
        assert_eq!(regions.len(), 2);
        let heads: Vec<NodeId> = regions.iter().map(|s| s.head).collect();
        assert_eq!(heads, ids(&[1, 5]));
        let r1 = &regions[0];
        assert_eq!(r1.exclusive_branch, ids(&[2])); // 3,9,10 shared
        let r5 = &regions[1];
        assert_eq!(r5.exclusive_branch, ids(&[6]));
        // Single-source consistency: the unequivocal path degenerates.
        let mut single = RouteReconstructor::new();
        single.observe_chain(&ids(&[4, 7, 8]));
        let regions = single.source_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].head, NodeId(4));
        assert_eq!(single.unequivocal_source(), Some(NodeId(4)));
    }

    #[test]
    fn source_regions_empty_on_loops() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2]));
        r.observe_chain(&ids(&[2, 1]));
        assert!(r.source_regions().is_empty());
    }

    /// The route parts of `r`'s evidence, as `SinkEngine::evidence`
    /// exports them.
    fn route_evidence(r: &RouteReconstructor) -> Evidence {
        Evidence {
            chains_observed: r.chains_observed(),
            nodes: r.nodes_set().clone(),
            edges: r.edge_pairs().collect(),
            head_support: r.head_support_map().clone(),
            edge_support: r.edge_support_map(),
            ..Evidence::default()
        }
    }

    /// Feeds `chains` to one reconstructor, and alternately to two
    /// that are then merged through `install`.
    fn whole_and_installed(chains: &[Vec<NodeId>]) -> (RouteReconstructor, RouteReconstructor) {
        let mut whole = RouteReconstructor::new();
        for c in chains {
            whole.observe_chain(c);
        }
        let mut a = RouteReconstructor::new();
        let mut b = RouteReconstructor::new();
        for (i, c) in chains.iter().enumerate() {
            if i % 2 == 0 {
                a.observe_chain(c);
            } else {
                b.observe_chain(c);
            }
        }
        a.install(&route_evidence(&b), None);
        (whole, a)
    }

    #[test]
    fn install_equals_single_reconstructor() {
        let chains: Vec<Vec<NodeId>> = vec![
            ids(&[1, 2, 3]),
            ids(&[5, 6, 3, 9]),
            ids(&[2, 3, 9, 10]),
            ids(&[1, 2]),
        ];
        let (whole, a) = whole_and_installed(&chains);
        assert_eq!(a.localize(), whole.localize());
        assert_eq!(a.source_regions(), whole.source_regions());
        assert_eq!(a.observed_count(), whole.observed_count());
        assert_eq!(a.chains_observed(), whole.chains_observed());
    }

    #[test]
    fn empty_chain_is_noop() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&[]);
        assert_eq!(r.chains_observed(), 0);
        assert_eq!(r.localize(), Localization::NoEvidence);
    }

    #[test]
    fn support_counts_track_heads_and_edges() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2, 3]));
        r.observe_chain(&ids(&[1, 2]));
        r.observe_chain(&ids(&[2, 3]));
        assert_eq!(r.head_support(NodeId(1)), 2);
        assert_eq!(r.head_support(NodeId(2)), 1);
        assert_eq!(r.head_support(NodeId(3)), 0);
        assert_eq!(r.edge_support(NodeId(1), NodeId(2)), 2);
        assert_eq!(r.edge_support(NodeId(2), NodeId(3)), 2);
        assert_eq!(r.edge_support(NodeId(3), NodeId(1)), 0);
        // The sink's resolve stage probes most support first; a tie keeps
        // first-seen order.
        r.observe_chain(&ids(&[4, 3]));
        assert_eq!(r.upstream_of(3), [(2, 2), (4, 1)]);
        r.observe_chain(&ids(&[4, 3]));
        r.observe_chain(&ids(&[4, 3]));
        assert_eq!(r.upstream_of(3), [(4, 3), (2, 2)]);
        assert_eq!(r.tails(), [(3, 5), (2, 1)]);
        // Installed evidence adds to the edge lists; it carries no tails.
        let mut merged = RouteReconstructor::new();
        merged.install(&route_evidence(&r), None);
        assert_eq!(merged.upstream_of(3), r.upstream_of(3));
        assert!(merged.tails().is_empty());
    }

    #[test]
    fn annotated_localization_reports_confidence() {
        let mut r = RouteReconstructor::new();
        for _ in 0..3 {
            r.observe_chain(&ids(&[1, 2, 3]));
        }
        r.observe_chain(&ids(&[2, 3]));
        let a = r.localize_annotated(2);
        assert_eq!(a.localization, Localization::MostUpstream(NodeId(1)));
        assert!(a.is_unequivocal());
        assert_eq!(a.support, 3);
        assert_eq!(a.chains, 4);
        assert!((a.confidence - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thin_support_widens_to_a_region() {
        // Node 1 heads exactly one chain; everything else starts at 2.
        // Requiring 3 supporting chains widens the answer to {1, 2}
        // instead of pinning node 1.
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[1, 2]));
        for _ in 0..5 {
            r.observe_chain(&ids(&[2, 3, 4]));
        }
        assert_eq!(r.localize(), Localization::MostUpstream(NodeId(1)));
        let a = r.localize_annotated(3);
        assert_eq!(a.localization, Localization::Ambiguous(ids(&[1, 2])));
        assert!(!a.is_unequivocal());
        assert_eq!(a.support, 1);
        // Every direct successor joins the widened region.
        let mut t = RouteReconstructor::new();
        t.observe_chain(&ids(&[1, 2]));
        t.observe_chain(&ids(&[1, 3]));
        t.observe_chain(&ids(&[2, 3]));
        let a = t.localize_annotated(3);
        assert_eq!(a.localization, Localization::Ambiguous(ids(&[1, 2, 3])));
    }

    #[test]
    fn min_support_one_never_widens() {
        let mut r = RouteReconstructor::new();
        r.observe_chain(&ids(&[4, 5, 6]));
        let a = r.localize_annotated(1);
        assert_eq!(a.localization, r.localize());
        assert_eq!(a.support, 1);
        assert_eq!(a.chains, 1);
        assert!((a.confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn annotated_no_evidence_has_zero_confidence() {
        let r = RouteReconstructor::new();
        let a = r.localize_annotated(5);
        assert_eq!(a.localization, Localization::NoEvidence);
        assert_eq!(a.support, 0);
        assert_eq!(a.chains, 0);
        assert_eq!(a.confidence, 0.0);
    }

    #[test]
    fn install_sums_support_counts() {
        let chains: Vec<Vec<NodeId>> =
            vec![ids(&[1, 2, 3]), ids(&[1, 2]), ids(&[2, 3]), ids(&[1, 3])];
        let (whole, a) = whole_and_installed(&chains);
        for n in [1u16, 2, 3] {
            assert_eq!(a.head_support(NodeId(n)), whole.head_support(NodeId(n)));
        }
        assert_eq!(
            a.edge_support(NodeId(1), NodeId(2)),
            whole.edge_support(NodeId(1), NodeId(2))
        );
        assert_eq!(a.localize_annotated(2), whole.localize_annotated(2));
    }
}
