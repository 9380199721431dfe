//! The end-to-end mole locator: packets in, suspected neighborhoods out.
//!
//! [`MoleLocator`] is the historical streaming facade over the staged
//! [`SinkEngine`]: the two-step traceback of §4.2 —
//! (1) collect marks from enough packets to reconstruct the route,
//! (2) identify the node(s) whose one-hop neighborhood must contain a mole —
//! plus tracking of *when* identification became unequivocal, the quantity
//! Figures 6 and 7 report. New code should use the engine directly; the
//! locator remains as the simplest possible entry point (keys + mode, no
//! optional stages).

use std::sync::Arc;

use pnm_crypto::KeyStore;
use pnm_wire::{NodeId, Packet};

use crate::reconstruct::{Localization, RouteReconstructor};
use crate::sink::{SinkConfig, SinkEngine};
use crate::verify::{VerifiedChain, VerifyMode};

/// Streaming mole locator at the sink.
///
/// # Examples
///
/// ```
/// use pnm_core::{MarkingConfig, MarkingScheme, MoleLocator, NestedMarking, NodeContext, VerifyMode};
/// use pnm_crypto::KeyStore;
/// use pnm_wire::{Location, NodeId, Packet, Report};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let keys = KeyStore::derive_from_master(b"doc", 5);
/// let scheme = NestedMarking::new(MarkingConfig::default());
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut pkt = Packet::new(Report::new(b"ev".to_vec(), Location::new(0.0, 0.0), 1));
/// for i in 0..5u16 {
///     let ctx = NodeContext::new(NodeId(i), *keys.key(i).unwrap());
///     scheme.mark(&ctx, &mut pkt, &mut rng);
/// }
/// let mut locator = MoleLocator::new(keys, VerifyMode::Nested);
/// locator.ingest(&pkt);
/// assert_eq!(locator.unequivocal_source(), Some(NodeId(0)));
/// ```
#[derive(Clone, Debug)]
pub struct MoleLocator {
    engine: SinkEngine,
}

impl MoleLocator {
    /// Creates a locator for a deployment's key table and scheme mode.
    /// Accepts either an owned [`KeyStore`] or a shared `Arc<KeyStore>`.
    pub fn new(keys: impl Into<Arc<KeyStore>>, mode: VerifyMode) -> Self {
        MoleLocator {
            engine: SinkEngine::new(keys, SinkConfig::new(mode)),
        }
    }

    /// Verifies one packet, folds its chain into the route, and returns the
    /// verified chain.
    pub fn ingest(&mut self, packet: &Packet) -> VerifiedChain {
        self.engine
            .ingest(packet)
            .chain
            .expect("engine without classifier admits every packet")
    }

    /// Single-packet traceback (basic nested marking, §4.1): the suspected
    /// neighborhood from this one packet alone, without touching the
    /// streaming state.
    pub fn locate_single(&self, packet: &Packet) -> Option<NodeId> {
        self.engine
            .verifier()
            .verify(packet, VerifyMode::Nested)
            .most_upstream()
    }

    /// Current localization decision.
    pub fn localize(&self) -> Localization {
        self.engine.localize()
    }

    /// The unequivocally identified most-upstream node, if reached.
    pub fn unequivocal_source(&self) -> Option<NodeId> {
        self.engine.unequivocal_source()
    }

    /// Packets ingested so far.
    pub fn packets_ingested(&self) -> usize {
        self.engine.packets_ingested()
    }

    /// The packet count at which identification first became unequivocal.
    pub fn first_unequivocal(&self) -> Option<usize> {
        self.engine.first_unequivocal()
    }

    /// Distinct nodes whose marks have been collected (Figure 5's metric).
    pub fn observed_count(&self) -> usize {
        self.engine.observed_count()
    }

    /// Read access to the underlying reconstructor.
    pub fn reconstructor(&self) -> &RouteReconstructor {
        self.engine.reconstructor()
    }

    /// Read access to the underlying staged engine (counters, quarantine).
    pub fn engine(&self) -> &SinkEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::scheme::ProbabilisticNestedMarking;
    use crate::test_support::{honest_packet, numbered_report};
    use pnm_wire::{Location, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(n: u16) -> KeyStore {
        KeyStore::derive_from_master(b"locator-test", n)
    }

    #[test]
    fn pnm_stream_converges_to_source() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut locator = MoleLocator::new(ks.clone(), VerifyMode::Nested);
        let mut rng = StdRng::seed_from_u64(11);
        for seq in 0..200 {
            let pkt = honest_packet(&ks, &scheme, n, numbered_report("bogus", seq), &mut rng);
            locator.ingest(&pkt);
        }
        assert_eq!(locator.packets_ingested(), 200);
        assert_eq!(locator.unequivocal_source(), Some(NodeId(0)));
        let first = locator.first_unequivocal().expect("converged");
        assert!(first < 200, "first unequivocal at {first}");
        assert_eq!(locator.observed_count(), n as usize);
        // The engine's counters are visible through the facade.
        assert_eq!(locator.engine().counters().packets, 200);
    }

    #[test]
    fn convergence_point_is_stable_once_reached() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut locator = MoleLocator::new(ks.clone(), VerifyMode::Nested);
        let mut rng = StdRng::seed_from_u64(5);
        let mut first_seen = None;
        for seq in 0..300 {
            let pkt = honest_packet(&ks, &scheme, n, numbered_report("bogus", seq), &mut rng);
            locator.ingest(&pkt);
            if first_seen.is_none() && locator.first_unequivocal().is_some() {
                first_seen = locator.first_unequivocal();
            }
        }
        assert_eq!(locator.first_unequivocal(), first_seen);
    }

    #[test]
    fn deterministic_nested_single_packet() {
        let n = 20u16;
        let ks = keys(n);
        let scheme = crate::scheme::NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let pkt = honest_packet(&ks, &scheme, n, numbered_report("bogus", 0), &mut rng);
        let locator = MoleLocator::new(ks, VerifyMode::Nested);
        assert_eq!(locator.locate_single(&pkt), Some(NodeId(0)));
    }

    #[test]
    fn ingest_with_no_marks_keeps_no_evidence() {
        let ks = keys(5);
        let mut locator = MoleLocator::new(ks, VerifyMode::Nested);
        let pkt = Packet::new(Report::new(vec![], Location::default(), 0));
        let chain = locator.ingest(&pkt);
        assert!(chain.nodes.is_empty());
        assert_eq!(locator.localize(), Localization::NoEvidence);
        assert!(locator.unequivocal_source().is_none());
    }

    #[test]
    fn table_cache_reused_for_same_report() {
        // Two identical reports: the second ingest must reuse the cached
        // anon table, observable both behaviorally (identical results) and
        // through the engine's counters.
        let n = 8u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let report = Report::new(b"same".to_vec(), Location::default(), 1);
        let pkt = honest_packet(&ks, &scheme, n, report, &mut rng);
        let mut locator = MoleLocator::new(ks, VerifyMode::Nested);
        let c1 = locator.ingest(&pkt);
        let c2 = locator.ingest(&pkt);
        assert_eq!(c1, c2);
        assert!(c1.fully_verified());
        assert_eq!(locator.engine().counters().table_builds, 1);
        assert_eq!(locator.engine().counters().table_cache_hits, 1);
    }

    #[test]
    fn locator_accepts_shared_arc_keystore() {
        let ks = Arc::new(keys(6));
        let scheme = ProbabilisticNestedMarking::paper_default(6);
        let mut rng = StdRng::seed_from_u64(1);
        // Several locators share one key table without copying it.
        let mut a = MoleLocator::new(Arc::clone(&ks), VerifyMode::Nested);
        let mut b = MoleLocator::new(Arc::clone(&ks), VerifyMode::Nested);
        let pkt = honest_packet(&ks, &scheme, 6, numbered_report("bogus", 0), &mut rng);
        assert_eq!(a.ingest(&pkt), b.ingest(&pkt));
    }
}
