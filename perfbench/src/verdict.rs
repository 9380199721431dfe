//! Correctness gates: what the system answered must equal what a
//! sequential engine answers over the same packets.

use std::sync::Arc;

use pnm_core::store::Evidence;
use pnm_core::{Localization, SinkConfig, SinkEngine, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_service::{DrainReport, ServiceConfig};
use pnm_wire::Packet;

/// The service configuration every workload runs: all defaults.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
}

/// The sink configuration a default service shard runs (isolation
/// stripped, stage timing as the service sets it) — what single-threaded
/// replicas must use to cost the same work.
pub fn shard_sink_config() -> SinkConfig {
    let service = service_config();
    service
        .sink()
        .clone()
        .without_isolation()
        .stage_timing(service.stage_timing_enabled())
}

/// One sequential engine fed the same packets as the system under test,
/// its evidence merged the way a pool's drain merges its shards.
pub struct Sequential {
    keys: Arc<KeyStore>,
    engine: SinkEngine,
}

impl Sequential {
    pub fn new(keys: &Arc<KeyStore>) -> Self {
        let config = service_config().sink().clone().without_isolation();
        Sequential {
            keys: Arc::clone(keys),
            engine: SinkEngine::new(Arc::clone(keys), config),
        }
    }

    pub fn feed(&mut self, packets: &[Packet]) {
        for p in packets {
            self.engine.ingest(p);
        }
    }

    pub fn evidence(&self) -> Evidence {
        let mut merged = SinkEngine::new(Arc::clone(&self.keys), service_config().sink().clone());
        merged.absorb(&self.engine);
        merged.refresh_quarantine();
        merged.quarantine_source_regions();
        merged.evidence()
    }
}

pub fn sequential_evidence(keys: &Arc<KeyStore>, packets: &[Packet]) -> Evidence {
    let mut sequential = Sequential::new(keys);
    sequential.feed(packets);
    sequential.evidence()
}

/// Byte equality of the canonical evidence encodings, except for
/// `first_unequivocal`: a sharded pool merges it as the minimum of
/// shard-local packet counts, a diagnostic the service documents as
/// order-dependent, so it is the one field allowed to differ.
pub fn same_evidence(got: &Evidence, want: &Evidence) -> Result<(), String> {
    let strip = |e: &Evidence| {
        let mut e = e.clone();
        e.first_unequivocal = None;
        e.to_bytes()
    };
    if strip(got) == strip(want) {
        Ok(())
    } else {
        Err(format!(
            "evidence differs from the sequential run: got {:?}, want {:?}",
            got.counters, want.counters
        ))
    }
}

/// A drained pool took every packet and lost none.
pub fn drained_cleanly(report: &DrainReport, packets: usize) -> Result<(), String> {
    let snap = &report.snapshot;
    if !report.wedged.is_empty() || !report.poisoned.is_empty() || snap.panics > 0 {
        return Err(format!(
            "pool lost work: wedged {:?}, poisoned {}, panics {}",
            report.wedged,
            report.poisoned.len(),
            snap.panics
        ));
    }
    if snap.shed > 0 || snap.processed as usize != packets || snap.store_errors > 0 {
        return Err(format!(
            "pool processed {} of {packets} packets (shed {}, store errors {})",
            snap.processed, snap.shed, snap.store_errors
        ));
    }
    Ok(())
}

/// Every node the localization names.
fn implicated(localization: &Localization) -> Vec<u16> {
    match localization {
        Localization::NoEvidence => Vec::new(),
        Localization::MostUpstream(n) => vec![n.raw()],
        Localization::Ambiguous(nodes) => nodes.iter().map(|n| n.raw()).collect(),
        Localization::Loop { members, junction } => {
            members.iter().chain(junction).map(|n| n.raw()).collect()
        }
    }
}

/// The localization names someone, and only nodes in `allowed`.
pub fn implicates_only(localization: &Localization, allowed: &[u16]) -> Result<(), String> {
    let named = implicated(localization);
    if named.is_empty() || named.iter().any(|n| !allowed.contains(n)) {
        return Err(format!(
            "verdict {localization:?} implicates a node outside {allowed:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_wire::NodeId;

    #[test]
    fn evidence_gate_ignores_only_first_unequivocal() {
        let mut want = Evidence::default();
        want.counters.packets = 10;
        want.nodes.extend([1, 2]);
        want.first_unequivocal = Some(4);
        let mut got = want.clone();
        got.first_unequivocal = Some(2);
        assert!(same_evidence(&got, &want).is_ok());
        got.counters.marks_verified += 1;
        assert!(same_evidence(&got, &want).is_err());
        let mut got = want.clone();
        got.edges.insert((1, 2));
        assert!(same_evidence(&got, &want).is_err());
    }

    #[test]
    fn suspect_gate_refuses_outsiders_and_empty_verdicts() {
        let allowed = [3, 4, 5];
        assert!(implicates_only(&Localization::MostUpstream(NodeId(4)), &allowed).is_ok());
        assert!(implicates_only(&Localization::MostUpstream(NodeId(9)), &allowed).is_err());
        let ambiguous = Localization::Ambiguous(vec![NodeId(3), NodeId(7)]);
        assert!(implicates_only(&ambiguous, &allowed).is_err());
        assert!(implicates_only(&Localization::NoEvidence, &allowed).is_err());
    }
}
