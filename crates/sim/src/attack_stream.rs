//! One attack-stream generator and one sequential reference.
//!
//! Every suite that proves a production path equal to one engine —
//! sharded, recovered, crash-recovered, traced, gateway-served — builds
//! its packets here and its expected evidence from [`sequential_reference`].
//!
//! - [`AttackPath`] marks packets along a chain of forwarders the way its
//!   nodes would: a source mole one hop upstream of the first forwarder
//!   and, optionally, a forwarding mole on the chain running an
//!   [`AttackPlan`] (any one or a combination of the seven attacks, §2.3).
//!   Its [`AttackPath::suspects`] are the moles' one-hop neighbourhoods:
//!   the only nodes a sound localization may name (Theorem 4).
//! - [`AttackStream`] is what the sink receives from one such chain,
//!   with the keys and the allowed suspects.
//! - [`sequential_reference`] is what a drained `ServicePool` must
//!   answer: one engine over the stream with isolation stripped, then a
//!   fresh engine that absorbs it and applies the isolation policy once.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pnm_adversary::{
    AlterStrategy, AttackKind, AttackPlan, ForwardingMole, MoleAction, MoleMarking,
    RemovalStrategy, SourceMole,
};
use pnm_core::store::Evidence;
use pnm_core::{Localization, MarkingScheme, NodeContext, SinkConfig, SinkEngine, SinkOutcome};
use pnm_crypto::KeyStore;
use pnm_wire::{NodeId, Packet};

use crate::scenario::{PathScenario, SchemeKind};

/// A chain of forwarders `first .. first + hops` (`first` most upstream)
/// between a source mole, id `first + hops`, and the sink.
pub struct AttackPath {
    keys: Arc<KeyStore>,
    scheme: Box<dyn MarkingScheme>,
    first: u16,
    hops: u16,
    /// Provisioned only if `keys` holds its key: it needs one to inject
    /// or to collude, not to stand idle upstream of an honest chain.
    source: Option<SourceMole>,
    /// The forwarding mole and its position on the chain.
    mole: Option<(u16, ForwardingMole)>,
    /// Whether the source joins a swapping mole's swap.
    source_swaps: bool,
}

impl AttackPath {
    /// An honest chain: the source mole injects, every forwarder marks
    /// under `scheme` with the paper's configuration for `hops` hops.
    ///
    /// # Panics
    ///
    /// [`AttackPath::forward`] panics if `keys` lacks a forwarder's key;
    /// [`AttackPath::inject`] and [`AttackPath::with_mole`] if it lacks
    /// the source's.
    pub fn new(keys: Arc<KeyStore>, scheme: SchemeKind, first: u16, hops: u16) -> Self {
        let source_id = first + hops;
        let source = keys
            .key(source_id)
            .map(|k| SourceMole::new(NodeId(source_id), *k));
        AttackPath {
            scheme: scheme.build(PathScenario::paper(hops).config()),
            keys,
            first,
            hops,
            source,
            mole: None,
            source_swaps: true,
        }
    }

    /// The paper's deployment (ids `0..hops` plus the source mole).
    pub fn paper(scheme: SchemeKind, hops: u16) -> Self {
        Self::new(
            Arc::new(PathScenario::paper(hops).keystore(1)),
            scheme,
            0,
            hops,
        )
    }

    /// Puts a forwarding mole at `position` (0 = the first forwarder),
    /// colluding with the source mole. A plan that swaps identities
    /// makes the source swap too, unless [`AttackPath::source_swaps`]
    /// says otherwise: it marks as itself or as the mole, half the time
    /// each (§4.2, Fig. 2).
    pub fn with_mole(mut self, position: u16, plan: AttackPlan) -> Self {
        assert!(position < self.hops, "the mole must be on the chain");
        let id = self.first + position;
        let key = *key(&self.keys, id);
        let source = self.source();
        let mole = ForwardingMole::new(NodeId(id), key, plan).with_partner(source.id, source.key);
        self.mole = Some((position, mole));
        self
    }

    /// Whether the source mole joins a swapping mole's swap (the
    /// default) or stays silent, leaving the forwarding mole to swap
    /// alone.
    pub fn source_swaps(mut self, swaps: bool) -> Self {
        self.source_swaps = swaps;
        self
    }

    /// The deployment keys.
    pub fn keys(&self) -> &Arc<KeyStore> {
        &self.keys
    }

    fn source(&mut self) -> &mut SourceMole {
        let id = self.first + self.hops;
        (self.source.as_mut()).unwrap_or_else(|| panic!("source mole {id} is not provisioned"))
    }

    /// Carries `packet` from the source to the sink: the source's swapped
    /// mark, if any, then each forwarder's mark, the mole's plan at its
    /// position. `None` if the mole dropped it.
    pub fn forward(&mut self, mut packet: Packet, rng: &mut dyn Rng) -> Option<Packet> {
        let scheme = self.scheme.as_ref();
        if let Some((_, mole)) = self.mole.as_ref().filter(|_| self.source_swaps) {
            if let (MoleMarking::SwapWithPartner, Some((id, key))) =
                (mole.plan.marking, mole.partner)
            {
                let ctx = if rng.next_u64() & 1 == 0 {
                    NodeContext::new(id, key)
                } else {
                    NodeContext::new(mole.id, mole.key)
                };
                scheme.mark(&ctx, &mut packet, rng);
            }
        }
        for hop in 0..self.hops {
            match &mut self.mole {
                Some((position, mole)) if *position == hop => {
                    if mole.process(&mut packet, scheme, rng) == MoleAction::Dropped {
                        return None;
                    }
                }
                _ => {
                    let id = self.first + hop;
                    scheme.mark(
                        &NodeContext::new(NodeId(id), *key(&self.keys, id)),
                        &mut packet,
                        rng,
                    );
                }
            }
        }
        Some(packet)
    }

    /// The source mole's next bogus report, carried to the sink.
    pub fn inject(&mut self, rng: &mut dyn Rng) -> Option<Packet> {
        let packet = self.source().inject(rng);
        self.forward(packet, rng)
    }

    /// `packets` of the source mole's reports carried to the sink. One
    /// RNG seeded with `seed` draws every report and every mark.
    pub fn stream(mut self, packets: usize, seed: u64) -> AttackStream {
        let mut rng = StdRng::seed_from_u64(seed);
        AttackStream {
            packets: (0..packets).filter_map(|_| self.inject(&mut rng)).collect(),
            suspects: self.suspects(),
            keys: self.keys,
        }
    }

    /// The moles' one-hop neighbourhoods on this chain.
    pub fn suspects(&self) -> BTreeSet<NodeId> {
        let source = NodeId(self.first + self.hops);
        let mut out = BTreeSet::from([source, NodeId(self.first)]);
        if let Some((position, _)) = &self.mole {
            let around = position.saturating_sub(1)..(position + 2).min(self.hops);
            out.extend(around.map(|p| NodeId(self.first + p)));
        }
        out
    }
}

fn key(keys: &KeyStore, id: u16) -> &pnm_crypto::MacKey {
    keys.key(id)
        .unwrap_or_else(|| panic!("node {id} is not provisioned"))
}

/// What the sink receives from one [`AttackPath`].
pub struct AttackStream {
    /// The deployment keys.
    pub keys: Arc<KeyStore>,
    /// The packets that reached the sink, in arrival order.
    pub packets: Vec<Packet>,
    /// The moles' one-hop neighbourhoods.
    pub suspects: BTreeSet<NodeId>,
}

impl AttackStream {
    /// `packets` of the source mole's reports under PNM on the paper's
    /// `hops`-hop deployment, the forwarding mole mid-path running
    /// `attack`'s canonical plan; `None` is honest forwarding.
    pub fn pnm(hops: u16, attack: Option<AttackKind>, packets: usize, seed: u64) -> Self {
        let mut path = AttackPath::paper(SchemeKind::Pnm, hops);
        if let Some(kind) = attack {
            path = path.with_mole(hops / 2, AttackPlan::canonical(kind, &[0]));
        }
        path.stream(packets, seed)
    }

    /// Whether `localization` names only allowed suspects: a most-upstream
    /// node, or a loop's junction (its members if it has none), inside
    /// the moles' neighbourhoods. An ambiguous verdict or none at all
    /// names nobody.
    pub fn names_only_suspects(&self, localization: &Localization) -> bool {
        match localization {
            Localization::MostUpstream(c) => self.suspects.contains(c),
            Localization::Loop { junction, members } => {
                let anchor = if junction.is_empty() {
                    members
                } else {
                    junction
                };
                anchor.iter().all(|n| self.suspects.contains(n))
            }
            Localization::Ambiguous(_) | Localization::NoEvidence => true,
        }
    }
}

/// A composite attack plan drawn from `seed`: any combination of the
/// seven attacks, naming ids in `0..10`.
pub fn composite_plan(seed: u64) -> AttackPlan {
    let rng = &mut StdRng::seed_from_u64(seed);
    let remove = match below(rng, 4) {
        0 => None,
        1 => Some(RemovalStrategy::All),
        2 => Some(RemovalStrategy::FirstK(1 + below(rng, 3) as usize)),
        _ => Some(RemovalStrategy::Ids(ids(rng, 1..4).into_iter().collect())),
    };
    let alter = match below(rng, 4) {
        0 => None,
        1 => Some(AlterStrategy::All),
        2 => Some(AlterStrategy::Index(below(rng, 6) as usize)),
        _ => Some(AlterStrategy::Ids(ids(rng, 1..4).into_iter().collect())),
    };
    AttackPlan {
        drop_if_marked_by: ids(rng, 0..3).into_iter().collect(),
        remove,
        reorder: below(rng, 2) == 1,
        alter,
        insert_fake: below(rng, 4) as usize,
        frame_ids: ids(rng, 0..3),
        marking: [
            MoleMarking::Silent,
            MoleMarking::Honest,
            MoleMarking::SwapWithPartner,
        ][below(rng, 3) as usize],
    }
}

fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// `len.start..len.end` ids (count drawn uniformly), each in `0..10`.
fn ids(rng: &mut StdRng, len: std::ops::Range<u64>) -> Vec<u16> {
    let count = len.start + below(rng, len.end - len.start);
    (0..count).map(|_| below(rng, 10) as u16).collect()
}

/// What one engine answers for a stream, as a drained pool must.
pub struct Reference {
    /// Each packet's outcome, in stream order.
    pub outcomes: Vec<SinkOutcome>,
    /// The drained engine: the stream's evidence with `config`'s
    /// isolation policy applied once, at the end.
    pub engine: SinkEngine,
}

/// The sequential reference: one engine over `packets` with isolation
/// stripped (shard-local quarantine would depend on the split), then a
/// fresh engine under `config` absorbs it, refreshes its quarantine from
/// the full localization and quarantines every source region's head.
pub fn sequential_reference(
    keys: &Arc<KeyStore>,
    config: &SinkConfig,
    packets: &[Packet],
) -> Reference {
    let mut one = SinkEngine::new(Arc::clone(keys), config.clone().without_isolation());
    let outcomes = packets.iter().map(|p| one.ingest(p)).collect();
    let mut engine = SinkEngine::new(Arc::clone(keys), config.clone());
    engine.absorb(&one);
    Reference {
        outcomes,
        engine: swept(engine),
    }
}

/// What a drained pool answers for `evidence`, as replayed from a store:
/// the reference's drain step over it.
pub fn drained_evidence(
    keys: &Arc<KeyStore>,
    config: &SinkConfig,
    evidence: &Evidence,
) -> SinkEngine {
    let mut engine = SinkEngine::new(Arc::clone(keys), config.clone());
    engine.install_evidence(evidence);
    swept(engine)
}

fn swept(mut engine: SinkEngine) -> SinkEngine {
    engine.refresh_quarantine();
    engine.quarantine_source_regions();
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspects_are_the_moles_neighbourhoods() {
        let honest = AttackPath::paper(SchemeKind::Pnm, 10);
        assert_eq!(honest.suspects(), BTreeSet::from([NodeId(0), NodeId(10)]));
        let attacked = honest.with_mole(5, AttackPlan::passive());
        let want = [0, 4, 5, 6, 10].map(NodeId);
        assert_eq!(attacked.suspects(), BTreeSet::from(want));
        let edge = AttackPath::paper(SchemeKind::Pnm, 4).with_mole(3, AttackPlan::passive());
        assert_eq!(edge.suspects(), BTreeSet::from([0, 2, 3, 4].map(NodeId)));
    }

    #[test]
    fn every_composite_plan_is_drawn_from_its_seed() {
        assert_eq!(composite_plan(7), composite_plan(7));
        let kinds: BTreeSet<AttackKind> = (0..64).flat_map(|s| composite_plan(s).kinds()).collect();
        assert_eq!(kinds.len(), 7, "64 seeds draw every attack class");
    }
}
