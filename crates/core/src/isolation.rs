//! Mole isolation (§7 "Mole Isolation", the paper's companion mechanism).
//!
//! Traceback alone does not stop an attack; once a suspected neighborhood
//! is identified the sink "dispatches task forces to such locations to
//! remove moles physically, or notifies their neighbors not to forward
//! traffic from them". [`IsolationPolicy`] turns a
//! [`Localization`] into a concrete
//! quarantine set, and [`QuarantineFilter`] is the forwarding-side rule
//! that drops traffic originating from quarantined nodes.

use std::collections::BTreeSet;

use pnm_wire::NodeId;

use crate::reconstruct::Localization;

/// How aggressively to quarantine around a suspected neighborhood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsolationPolicy {
    /// Quarantine only the named suspect node(s) — minimal collateral,
    /// relies on physical inspection to find the actual mole nearby.
    SuspectsOnly,
    /// Quarantine the suspect(s) and their one-hop neighbors — matches the
    /// paper's guarantee ("a mole is within the one-hop neighborhood"), at
    /// the cost of quarantining up to `d` innocents until inspection.
    OneHopNeighborhood,
}

/// Computes the quarantine set implied by a localization under a policy.
///
/// `neighbors(n)` supplies ground-truth (sink-known, §7 footnote 7)
/// one-hop adjacency.
pub fn quarantine_set<F>(
    localization: &Localization,
    policy: IsolationPolicy,
    neighbors: F,
) -> BTreeSet<NodeId>
where
    F: Fn(NodeId) -> Vec<NodeId>,
{
    let suspects: Vec<NodeId> = match localization {
        Localization::NoEvidence => Vec::new(),
        Localization::MostUpstream(n) => vec![*n],
        Localization::Ambiguous(c) => c.clone(),
        Localization::Loop { junction, members } => {
            if junction.is_empty() {
                members.clone()
            } else {
                junction.clone()
            }
        }
    };
    let mut set: BTreeSet<NodeId> = suspects.iter().copied().collect();
    if policy == IsolationPolicy::OneHopNeighborhood {
        for s in suspects {
            set.extend(neighbors(s));
        }
    }
    set
}

/// Forwarding-side quarantine: drop packets whose *origin* is quarantined.
///
/// In a deployment the origin is the first-hop neighbor a node heard the
/// packet from; the simulator passes it explicitly.
#[derive(Clone, Debug, Default)]
pub struct QuarantineFilter {
    quarantined: BTreeSet<NodeId>,
}

impl QuarantineFilter {
    /// Creates an empty filter (nothing quarantined).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds nodes to the quarantine set.
    pub fn quarantine<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) {
        self.quarantined.extend(nodes);
    }

    /// Lifts quarantine from a node (e.g., cleared by inspection),
    /// returning whether it was quarantined.
    pub fn release(&mut self, node: NodeId) -> bool {
        self.quarantined.remove(&node)
    }

    /// Whether traffic originating at `origin` should be forwarded.
    pub fn permits(&self, origin: NodeId) -> bool {
        !self.quarantined.contains(&origin)
    }

    /// Currently quarantined nodes.
    pub fn quarantined(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.quarantined.iter().copied()
    }

    /// Number of quarantined nodes.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    /// `true` if nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_neighbors(n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        if n.raw() > 0 {
            v.push(NodeId(n.raw() - 1));
        }
        v.push(NodeId(n.raw() + 1));
        v
    }

    #[test]
    fn suspects_only_policy() {
        let loc = Localization::MostUpstream(NodeId(4));
        let q = quarantine_set(&loc, IsolationPolicy::SuspectsOnly, chain_neighbors);
        assert_eq!(q.into_iter().collect::<Vec<_>>(), vec![NodeId(4)]);
    }

    #[test]
    fn one_hop_policy_includes_neighbors() {
        let loc = Localization::MostUpstream(NodeId(4));
        let q = quarantine_set(&loc, IsolationPolicy::OneHopNeighborhood, chain_neighbors);
        assert_eq!(
            q.into_iter().collect::<Vec<_>>(),
            vec![NodeId(3), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn loop_localization_uses_junction() {
        let loc = Localization::Loop {
            members: vec![NodeId(1), NodeId(2)],
            junction: vec![NodeId(3)],
        };
        let q = quarantine_set(&loc, IsolationPolicy::SuspectsOnly, chain_neighbors);
        assert_eq!(q.into_iter().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn no_evidence_quarantines_nobody() {
        let q = quarantine_set(
            &Localization::NoEvidence,
            IsolationPolicy::OneHopNeighborhood,
            chain_neighbors,
        );
        assert!(q.is_empty());
    }

    #[test]
    fn filter_blocks_and_releases() {
        let mut f = QuarantineFilter::new();
        assert!(f.permits(NodeId(7)));
        f.quarantine([NodeId(7), NodeId(8)]);
        assert!(!f.permits(NodeId(7)));
        assert!(f.permits(NodeId(9)));
        assert_eq!(f.len(), 2);
        assert!(f.release(NodeId(7)));
        assert!(!f.release(NodeId(7)));
        assert!(f.permits(NodeId(7)));
        assert_eq!(f.quarantined().collect::<Vec<_>>(), vec![NodeId(8)]);
    }
}
