//! Randomized composite-attack fuzzing: arbitrary *combinations* of the
//! seven attack classes, with randomized parameters, against PNM.
//!
//! The paper's Theorem 4 covers any manipulation, not just the canonical
//! single attacks — "the mole can use any one or a combination of the
//! attacks" (§2.3). This test draws random `AttackPlan`s and asserts the
//! sink is never misled to a non-mole-adjacent node. The source mole
//! injects a fresh report per packet, so the sink resolves every attacked
//! packet through its learned probes or a table build: each chain must
//! equal the one the full §4.2 table gives.

use proptest::prelude::*;

use pnm::core::{Localization, MoleLocator, VerifyMode};
use pnm::sim::{composite_plan, AttackPath, SchemeKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever composite manipulation the forwarding mole runs, PNM's
    /// localization — if it names anyone — names a node with a mole in its
    /// one-hop neighborhood. (It may be inconclusive or starved; it must
    /// never confidently frame a far-away innocent.)
    #[test]
    fn composite_attacks_never_mislead_pnm(
        plan_seed in any::<u64>(),
        mole_pos in 2u16..8,
        source_swaps in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let stream = AttackPath::paper(SchemeKind::Pnm, 10)
            .with_mole(mole_pos, composite_plan(plan_seed))
            .source_swaps(source_swaps)
            .stream(150, seed);
        let mut locator = MoleLocator::new(stream.keys.clone(), VerifyMode::Nested);
        for pkt in &stream.packets {
            let chain = locator.ingest(pkt);
            let table = locator.engine().verifier().verify(pkt, VerifyMode::Nested);
            prop_assert_eq!(chain, table);
        }

        // Mole adjacency on the chain (plus the source at v0's doorstep).
        let mole_adjacent = |c: &pnm::wire::NodeId| stream.suspects.contains(c);
        match locator.localize() {
            Localization::MostUpstream(c) => {
                prop_assert!(mole_adjacent(&c), "framed innocent {c} (mole at {mole_pos})");
            }
            Localization::Loop { junction, members } => {
                let anchor = if junction.is_empty() { &members } else { &junction };
                // A loop verdict must not consist purely of far-away
                // innocents.
                prop_assert!(
                    anchor.iter().any(mole_adjacent),
                    "loop verdict without any mole-adjacent node: {anchor:?}"
                );
            }
            // Hiding (ambiguous / starved / no evidence) is allowed — the
            // attack bought concealment, not framing.
            Localization::Ambiguous(_) | Localization::NoEvidence => {}
        }
    }
}
