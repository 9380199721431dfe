//! Randomized composite-attack fuzzing: arbitrary *combinations* of the
//! seven attack classes, with randomized parameters, against PNM.
//!
//! The paper's Theorem 4 covers any manipulation, not just the canonical
//! single attacks — "the mole can use any one or a combination of the
//! attacks" (§2.3). This test samples random `AttackPlan`s and asserts the
//! sink is never misled to a non-mole-adjacent node. The source mole
//! injects a fresh report per packet, so the sink resolves every attacked
//! packet through its learned probes or a table build: each chain must
//! equal the one the full §4.2 table gives.

use proptest::prelude::*;

use pnm::adversary::{
    AlterStrategy, AttackPlan, ForwardingMole, MoleAction, MoleMarking, RemovalStrategy, SourceMole,
};
use pnm::core::{Localization, MoleLocator, NodeContext, VerifyMode};
use pnm::sim::{PathScenario, SchemeKind};
use pnm::wire::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_plan() -> impl Strategy<Value = AttackPlan> {
    let removal = prop_oneof![
        Just(None),
        Just(Some(RemovalStrategy::All)),
        (1usize..4).prop_map(|k| Some(RemovalStrategy::FirstK(k))),
        proptest::collection::btree_set(0u16..10, 1..4)
            .prop_map(|ids| Some(RemovalStrategy::Ids(ids))),
    ];
    let alter = prop_oneof![
        Just(None),
        Just(Some(AlterStrategy::All)),
        (0usize..6).prop_map(|i| Some(AlterStrategy::Index(i))),
        proptest::collection::btree_set(0u16..10, 1..4)
            .prop_map(|ids| Some(AlterStrategy::Ids(ids))),
    ];
    let marking = prop_oneof![
        Just(MoleMarking::Silent),
        Just(MoleMarking::Honest),
        Just(MoleMarking::SwapWithPartner),
    ];
    (
        proptest::collection::btree_set(0u16..10, 0..3),
        removal,
        any::<bool>(),
        alter,
        0usize..4,
        proptest::collection::vec(0u16..10, 0..3),
        marking,
    )
        .prop_map(
            |(drop_if_marked_by, remove, reorder, alter, insert_fake, frame_ids, marking)| {
                AttackPlan {
                    drop_if_marked_by,
                    remove,
                    reorder,
                    alter,
                    insert_fake,
                    frame_ids,
                    marking,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever composite manipulation the forwarding mole runs, PNM's
    /// localization — if it names anyone — names a node with a mole in its
    /// one-hop neighborhood. (It may be inconclusive or starved; it must
    /// never confidently frame a far-away innocent.)
    #[test]
    fn composite_attacks_never_mislead_pnm(
        plan in arb_plan(),
        mole_pos in 2u16..8,
        seed in any::<u64>(),
    ) {
        let n = 10u16;
        let scenario = PathScenario::paper(n);
        let keys = scenario.keystore(1);
        let scheme = SchemeKind::Pnm.build(scenario.config());
        let source_id = NodeId(n);
        let mut source = SourceMole::new(source_id, *keys.key(n).unwrap());
        let mut mole = ForwardingMole::new(NodeId(mole_pos), *keys.key(mole_pos).unwrap(), plan)
            .with_partner(source_id, *keys.key(n).unwrap());
        let mut locator = MoleLocator::new(keys.clone(), VerifyMode::Nested);
        let mut rng = StdRng::seed_from_u64(seed);

        for _ in 0..150 {
            let mut pkt = source.inject(&mut rng);
            let mut dropped = false;
            for hop in 0..n {
                if hop == mole_pos {
                    if mole.process(&mut pkt, scheme.as_ref(), &mut rng) == MoleAction::Dropped {
                        dropped = true;
                        break;
                    }
                } else {
                    let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                    scheme.mark(&ctx, &mut pkt, &mut rng);
                }
            }
            if !dropped {
                let chain = locator.ingest(&pkt);
                let table = locator.engine().verifier().verify(&pkt, VerifyMode::Nested);
                prop_assert_eq!(chain, table);
            }
        }

        // Mole adjacency on the chain (plus the source at v0's doorstep).
        let mole_adjacent = |c: NodeId| -> bool {
            if c == source_id || c.raw() == mole_pos {
                return true;
            }
            if c.raw() == 0 {
                return true; // v0 is the source mole's neighbor
            }
            c.raw() < n && c.raw().abs_diff(mole_pos) == 1
        };

        match locator.localize() {
            Localization::MostUpstream(c) => {
                prop_assert!(mole_adjacent(c), "framed innocent {c} (mole at {mole_pos})");
            }
            Localization::Loop { junction, members } => {
                let anchor = if junction.is_empty() { &members } else { &junction };
                // A loop verdict must not consist purely of far-away
                // innocents.
                prop_assert!(
                    anchor.iter().any(|j| mole_adjacent(*j)),
                    "loop verdict without any mole-adjacent node: {anchor:?}"
                );
            }
            // Hiding (ambiguous / starved / no evidence) is allowed — the
            // attack bought concealment, not framing.
            Localization::Ambiguous(_) | Localization::NoEvidence => {}
        }
    }
}
