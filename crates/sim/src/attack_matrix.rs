//! The scheme × attack security matrix (reproducing §3 and §5's analysis
//! as an experiment).
//!
//! For every marking scheme and every colluding attack from the §2.2
//! taxonomy, a chain scenario is simulated: source mole `S` (one-hop
//! upstream of V1) injects bogus reports; forwarding mole `X` sits
//! mid-path executing the attack. After the traffic budget, the sink's
//! localization is classified:
//!
//! - **Secure** — the suspected neighborhood contains a mole (the paper's
//!   one-hop-precision guarantee).
//! - **Misled** — the sink confidently points at an innocent node with no
//!   mole in its one-hop neighborhood (the attacker won).
//! - **Inconclusive** — the sink could not narrow the suspects (and not
//!   every candidate is mole-adjacent).
//! - **Starved** — no attack packets reached the sink at all (a mole that
//!   drops everything silences the attack itself — footnote 2 of the
//!   paper: marking is then out of scope).

use core::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pnm_adversary::{AttackKind, AttackPlan};
use pnm_core::{Localization, SinkConfig, SinkEngine};
use pnm_wire::NodeId;

use crate::attack_stream::{AttackPath, AttackStream};
use crate::scenario::SchemeKind;
use crate::table::Table;

/// Classification of a traceback outcome under attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// A mole lies within the suspected one-hop neighborhood.
    Secure,
    /// The sink confidently suspects an innocent, non-mole-adjacent node.
    Misled,
    /// The sink could not narrow the suspect set.
    Inconclusive,
    /// No packets reached the sink.
    Starved,
}

impl Outcome {
    /// Short cell label for the matrix.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Secure => "secure",
            Outcome::Misled => "MISLED",
            Outcome::Inconclusive => "inconclusive",
            Outcome::Starved => "starved",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration for one attack-matrix cell evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackScenario {
    /// Forwarders on the path (V1 = id 0 … Vn = id n−1).
    pub path_len: u16,
    /// Index of the forwarding mole `X` on the path.
    pub mole_position: u16,
    /// Packets the source mole injects.
    pub packets: usize,
    /// RNG seed.
    pub seed: u64,
}

impl AttackScenario {
    /// The default cell configuration: 10-hop path, mole mid-path,
    /// 300 injected packets.
    pub fn default_cell(seed: u64) -> Self {
        AttackScenario {
            path_len: 10,
            mole_position: 5,
            packets: 300,
            seed,
        }
    }
}

/// Runs one cell: `scheme` under `attack`, returning the classified
/// outcome and the localization for diagnostics.
pub fn evaluate_cell(
    scheme_kind: SchemeKind,
    attack: AttackKind,
    scenario: &AttackScenario,
) -> (Outcome, Localization) {
    // Canonical selective dropping targets the most-upstream forwarder.
    let plan = AttackPlan::canonical(attack, &[0]);
    let stream = AttackPath::paper(scheme_kind, scenario.path_len)
        .with_mole(scenario.mole_position, plan)
        .stream(scenario.packets, scenario.seed);
    let mut sink = SinkEngine::new(
        Arc::clone(&stream.keys),
        SinkConfig::new(scheme_kind.verify_mode()),
    );
    for pkt in &stream.packets {
        sink.ingest(pkt);
    }
    let loc = sink.localize();
    (classify(&stream, &loc), loc)
}

/// Maps a localization to an [`Outcome`] given ground truth.
fn classify(stream: &AttackStream, loc: &Localization) -> Outcome {
    let mole_adjacent = |c: &NodeId| stream.suspects.contains(c);
    if stream.packets.is_empty() {
        return Outcome::Starved;
    }
    match loc {
        Localization::NoEvidence => Outcome::Inconclusive,
        Localization::MostUpstream(c) => {
            if mole_adjacent(c) {
                Outcome::Secure
            } else {
                Outcome::Misled
            }
        }
        Localization::Loop { junction, members } => {
            // Theorem 4's loop case names *the* junction node. A clean
            // reconstruction has exactly one (or a couple of swap-partner)
            // junction nodes, all mole-adjacent. A sprawling junction set
            // means the order relation is scrambled (e.g. re-ordering
            // attacks), not a genuine identity-swap loop: the sink cannot
            // act on it.
            let anchor = if junction.is_empty() {
                members
            } else {
                junction
            };
            if anchor.is_empty() {
                Outcome::Inconclusive
            } else if anchor.iter().all(mole_adjacent) {
                Outcome::Secure
            } else if anchor.iter().any(mole_adjacent) {
                Outcome::Inconclusive
            } else {
                Outcome::Misled
            }
        }
        Localization::Ambiguous(cands) => {
            if !cands.is_empty() && cands.iter().all(mole_adjacent) {
                // Every remaining candidate pins a mole: actionable.
                Outcome::Secure
            } else {
                Outcome::Inconclusive
            }
        }
    }
}

/// Builds the full scheme × attack matrix table.
pub fn attack_matrix(scenario: &AttackScenario) -> Table {
    let mut headers = vec!["scheme".to_string()];
    headers.extend(AttackKind::all().iter().map(|a| a.to_string()));
    let mut t = Table::new(
        format!(
            "Attack matrix (path={}, mole at {}, {} packets): traceback outcome per scheme x attack",
            scenario.path_len, scenario.mole_position, scenario.packets
        ),
        headers,
    );
    for scheme in SchemeKind::all() {
        let mut row = vec![scheme.name().to_string()];
        for attack in AttackKind::all() {
            let (outcome, _) = evaluate_cell(scheme, attack, scenario);
            row.push(outcome.to_string());
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scheme: SchemeKind, attack: AttackKind) -> Outcome {
        evaluate_cell(scheme, attack, &AttackScenario::default_cell(2024)).0
    }

    #[test]
    fn pnm_secure_under_every_attack() {
        for attack in AttackKind::all() {
            let outcome = cell(SchemeKind::Pnm, attack);
            assert_eq!(outcome, Outcome::Secure, "PNM under {attack}");
        }
    }

    #[test]
    fn plain_id_probabilistic_nested_falls_to_selective_drop() {
        // The §4.2 counterexample: nested MACs + plain IDs + probabilistic
        // marking is misled by selective dropping.
        let outcome = cell(SchemeKind::ProbNestedPlainId, AttackKind::SelectiveDrop);
        assert_eq!(outcome, Outcome::Misled);
    }

    #[test]
    fn extended_ams_falls_to_mark_removal() {
        // §3: "if mole X removes all marks from S and node 1, the sink will
        // trace back to innocent node 2."
        let outcome = cell(SchemeKind::ExtendedAms, AttackKind::MarkRemoval);
        assert_eq!(outcome, Outcome::Misled);
    }

    #[test]
    fn plain_marking_falls_to_insertion() {
        // Random faked IDs flood the candidate set: depending on which ids
        // repeat, the sink is misled to an innocent or left unable to
        // conclude. Either way, plain marking is defeated.
        let outcome = cell(SchemeKind::Plain, AttackKind::MarkInsertion);
        assert_ne!(outcome, Outcome::Secure);
        assert_ne!(outcome, Outcome::Starved);
    }

    #[test]
    fn nested_secure_under_removal_and_altering() {
        assert_eq!(
            cell(SchemeKind::Nested, AttackKind::MarkRemoval),
            Outcome::Secure
        );
        assert_eq!(
            cell(SchemeKind::Nested, AttackKind::MarkAlter),
            Outcome::Secure
        );
        assert_eq!(
            cell(SchemeKind::Nested, AttackKind::MarkReorder),
            Outcome::Secure
        );
    }

    #[test]
    fn nested_deterministic_starved_by_selective_drop() {
        // Footnote 2: with deterministic nested marking every packet carries
        // the victim's mark, so "selective" dropping degenerates to dropping
        // all attack traffic — silencing the attack itself.
        assert_eq!(
            cell(SchemeKind::Nested, AttackKind::SelectiveDrop),
            Outcome::Starved
        );
    }

    #[test]
    fn no_mark_attack_never_misleads_any_scheme() {
        for scheme in SchemeKind::all() {
            let outcome = cell(scheme, AttackKind::NoMark);
            assert_ne!(outcome, Outcome::Misled, "{scheme} under no-mark");
        }
    }

    #[test]
    fn matrix_table_shape() {
        let t = attack_matrix(&AttackScenario {
            path_len: 6,
            mole_position: 3,
            packets: 120,
            seed: 7,
        });
        assert_eq!(t.len(), 5);
        assert_eq!(t.headers.len(), 8);
    }
}
