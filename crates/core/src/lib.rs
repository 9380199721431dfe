//! Probabilistic Nested Marking (PNM) — the primary contribution of
//! *Catching "Moles" in Sensor Networks* (ICDCS 2007), reproduced in Rust.
//!
//! Compromised sensor nodes ("moles") inject bogus reports; colluding moles
//! on the forwarding path manipulate traceback marks to hide. PNM defeats
//! them with two techniques:
//!
//! 1. **Nested marking** (§4.1): every forwarder's MAC covers the *entire*
//!    message it received, so no upstream mark can be altered, removed, or
//!    re-ordered without invalidating the tamperer's own suffix — one
//!    packet traces to a mole's one-hop neighborhood.
//! 2. **Probabilistic marking with anonymous IDs** (§4.2): each forwarder
//!    marks with probability `p` under an ID only the sink can reverse,
//!    cutting per-packet overhead to `np` marks while making selective
//!    dropping useless.
//!
//! The crate provides the five schemes the paper analyzes (PNM plus the
//! baselines it breaks), and the staged sink pipeline
//! ([`SinkEngine`]): mark verification, anonymous-ID resolution, route
//! reconstruction with identity-swap loop detection, localization, and
//! quarantine — with the streaming [`MoleLocator`] as its minimal facade.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, SinkEngine, VerifyMode};
//! use pnm_crypto::KeyStore;
//! use pnm_wire::{Location, NodeId, Packet, Report};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Provision a 10-hop path and run PNM with the paper's settings.
//! let keys = Arc::new(KeyStore::derive_from_master(b"deployment", 10));
//! let scheme = ProbabilisticNestedMarking::paper_default(10);
//! let mut sink = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(VerifyMode::Nested));
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! for seq in 0..100u64 {
//!     let report = Report::new(format!("bogus-{seq}").into_bytes(), Location::new(0.0, 0.0), seq);
//!     let mut pkt = Packet::new(report);
//!     for hop in 0..10u16 {
//!         let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
//!         scheme.mark(&ctx, &mut pkt, &mut rng);
//!     }
//!     sink.ingest(&pkt);
//! }
//! // The most-upstream node (the source mole's first forwarder) is found.
//! assert_eq!(sink.unequivocal_source(), Some(NodeId(0)));
//! // Uniform instrumentation across the pipeline's stages:
//! assert_eq!(sink.counters().packets, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod config;
pub mod isolation;
pub mod locator;
pub mod precision;
pub mod reconstruct;
pub mod replay;
pub mod scheme;
pub mod sink;
pub mod stage;
pub mod store;
pub mod verify;

pub use classifier::{EventRegistry, TrafficClassifier, Verdict, VolumeMonitor};
pub use config::{MarkingConfig, MarkingConfigBuilder};
pub use isolation::{quarantine_set, IsolationPolicy, QuarantineFilter};
pub use locator::MoleLocator;
pub use precision::{
    attest_receipt, refine_suspects, verify_receipt, PairwiseKeys, ReceiptAttestation,
    RefinedSuspects,
};
pub use reconstruct::{AnnotatedLocalization, Localization, RouteReconstructor, SourceRegion};
pub use replay::{DuplicateSuppressor, SequenceWindow};
pub use scheme::{
    ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
    ProbabilisticNestedMarking, ProbabilisticNestedPlainId,
};
pub use sink::{RejectReason, SinkConfig, SinkCounters, SinkEngine, SinkOutcome};
pub use stage::{StageHistograms, StageMetrics, STAGE_NAMES};
pub use store::{
    DeltaWriter, Evidence, EvidenceStore, LogStore, MemStore, RecordKind, StoreError, StoreReplay,
    VerdictCounters,
};
pub use verify::{AnonTable, CandidateSet, SinkVerifier, StopReason, VerifiedChain, VerifyMode};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use pnm_crypto::KeyStore;
    use pnm_wire::{Location, NodeId, Packet, Report};

    use crate::config::MarkingConfig;
    use crate::scheme::{MarkingScheme, NestedMarking, NodeContext, ProbabilisticNestedMarking};
    use crate::verify::{SinkVerifier, StopReason, VerifyMode};

    fn honest_packet(
        keys: &KeyStore,
        scheme: &dyn MarkingScheme,
        n: u16,
        seed: u64,
        event: Vec<u8>,
    ) -> Packet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pkt = Packet::new(Report::new(event, Location::new(0.0, 0.0), seed));
        for i in 0..n {
            let ctx = NodeContext::new(NodeId(i), *keys.key(i).unwrap());
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        pkt
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Honest nested-marking chains of any length always fully verify,
        /// in exact path order (consecutive traceability, Theorem 2).
        #[test]
        fn honest_nested_chains_verify(
            n in 1u16..40,
            seed in any::<u64>(),
            event in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let keys = KeyStore::derive_from_master(b"prop", n);
            let scheme = NestedMarking::new(MarkingConfig::default());
            let pkt = honest_packet(&keys, &scheme, n, seed, event);
            let chain = SinkVerifier::new(keys).verify(&pkt, VerifyMode::Nested);
            prop_assert!(chain.fully_verified());
            let expect: Vec<NodeId> = (0..n).map(NodeId).collect();
            prop_assert_eq!(chain.nodes, expect);
        }

        /// Honest PNM chains always fully verify, and the verified IDs form
        /// an increasing subsequence of the true path.
        #[test]
        fn honest_pnm_chains_verify(
            n in 1u16..40,
            seed in any::<u64>(),
            p in 0.05f64..1.0,
        ) {
            let keys = KeyStore::derive_from_master(b"prop", n);
            let cfg = MarkingConfig::builder().marking_probability(p).build();
            let scheme = ProbabilisticNestedMarking::new(cfg);
            let pkt = honest_packet(&keys, &scheme, n, seed, vec![1, 2, 3]);
            let chain = SinkVerifier::new(keys).verify(&pkt, VerifyMode::Nested);
            if pkt.mark_count() == 0 {
                // No node chose to mark; nothing to verify.
                prop_assert_eq!(chain.stop, StopReason::NoMarks);
                return Ok(());
            }
            prop_assert!(chain.fully_verified());
            let raws: Vec<u16> = chain.nodes.iter().map(|x| x.raw()).collect();
            prop_assert!(raws.windows(2).all(|w| w[0] < w[1]));
        }

        /// Tampering with any single mark byte of a finished nested packet
        /// is always detected (the packet no longer fully verifies).
        #[test]
        fn any_tamper_detected(
            n in 2u16..20,
            seed in any::<u64>(),
            victim in any::<prop::sample::Index>(),
            bit in any::<prop::sample::Index>(),
        ) {
            let keys = KeyStore::derive_from_master(b"prop", n);
            let scheme = NestedMarking::new(MarkingConfig::default());
            let mut pkt = honest_packet(&keys, &scheme, n, seed, vec![9]);
            let v = victim.index(pkt.marks.len());
            let mac = pkt.marks[v].mac.unwrap();
            pkt.marks[v].mac = Some(mac.with_bit_flipped(bit.index(64)));
            let chain = SinkVerifier::new(keys).verify(&pkt, VerifyMode::Nested);
            prop_assert!(!chain.fully_verified());
            let stopped_on_invalid = matches!(chain.stop, StopReason::InvalidMac { .. });
            prop_assert!(stopped_on_invalid);
        }

        /// Removing any strict prefix of marks from a finished nested packet
        /// is detected unless the removal is a suffix-preserving no-op.
        #[test]
        fn mark_removal_detected(
            n in 3u16..20,
            seed in any::<u64>(),
            removed in any::<prop::sample::Index>(),
        ) {
            let keys = KeyStore::derive_from_master(b"prop", n);
            let scheme = NestedMarking::new(MarkingConfig::default());
            let mut pkt = honest_packet(&keys, &scheme, n, seed, vec![4]);
            // Remove a mark that is not the last one: some downstream mark
            // covered it, so verification must fail.
            let r = removed.index(pkt.marks.len() - 1);
            pkt.marks.remove(r);
            let chain = SinkVerifier::new(keys).verify(&pkt, VerifyMode::Nested);
            prop_assert!(!chain.fully_verified());
        }
    }
}
