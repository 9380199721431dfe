//! Seeded input generation for the three workloads. The system under test
//! only ever sees the packets built here; the same seed gives the same
//! packets, byte for byte.

use std::sync::Arc;

use pnm_adversary::{AlterStrategy, AttackPlan, ForwardingMole, MoleMarking, SourceMole};
use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking};
use pnm_crypto::KeyStore;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A provisioned deployment: the master secret and node count its keys
/// derive from. Deriving is part of set-up, so it is redone per timing.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub master: Vec<u8>,
    pub nodes: u16,
}

impl Deployment {
    fn new(tag: &str, seed: u64, nodes: u16) -> Self {
        Deployment {
            master: format!("perfbench-{tag}-{seed:016x}").into_bytes(),
            nodes,
        }
    }

    /// Derives every node key and provisions the HMAC key schedule — the
    /// key half of set-up.
    pub fn provision(&self) -> Arc<KeyStore> {
        let keys = Arc::new(KeyStore::derive_from_master(&self.master, self.nodes));
        let _ = keys.schedule();
        keys
    }
}

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` distinct node ids drawn from `0..nodes`, in random order.
fn random_path(rng: &mut StdRng, nodes: u16, count: usize) -> Vec<u16> {
    let mut ids: Vec<u16> = (0..nodes).collect();
    for i in (1..ids.len()).rev() {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

fn mark_along(
    keys: &KeyStore,
    scheme: &dyn MarkingScheme,
    path: &[u16],
    pkt: &mut Packet,
    rng: &mut StdRng,
) {
    for &hop in path {
        let key = *keys.key(hop).expect("path nodes are provisioned");
        scheme.mark(&NodeContext::new(NodeId(hop), key), pkt, rng);
    }
}

/// `edge_acked`: one tenant's 6-node deployment, PNM over a 4-hop path,
/// a fresh report in every packet.
pub struct Edge {
    pub deployment: Deployment,
    pub path: Vec<u16>,
    seed: u64,
}

impl Edge {
    pub const NODES: u16 = 6;
    pub const HOPS: usize = 4;

    pub fn new(seed: u64) -> Self {
        Edge {
            deployment: Deployment::new("edge", seed, Self::NODES),
            path: random_path(&mut rng(seed, 1), Self::NODES, Self::HOPS),
            seed,
        }
    }

    /// Packets `first..first + count` of the stream. Each packet depends
    /// only on the seed and its index, so any range regenerates exactly.
    pub fn packets(&self, keys: &KeyStore, first: u64, count: usize) -> Vec<Packet> {
        let scheme = ProbabilisticNestedMarking::paper_default(Self::HOPS);
        (first..first + count as u64)
            .map(|i| {
                let mut rng = rng(self.seed, 1 << 32 | i);
                let report = Report::new(
                    format!("edge-{:x}-{i}", self.seed).into_bytes(),
                    Location::new((i % 1000) as f32, 7.0),
                    i,
                );
                let mut pkt = Packet::new(report);
                mark_along(keys, &scheme, &self.path, &mut pkt, &mut rng);
                pkt
            })
            .collect()
    }
}

/// `sink_fresh`: a 400-node field deployment. A source mole at hop 0 of a
/// 20-hop path injects a distinct bogus report per packet; a colluding
/// forwarding mole at hop 10 tampers with a share of the packets (corrupts
/// the first mark's MAC) and otherwise forwards like an honest node.
pub struct Fresh {
    pub deployment: Deployment,
    pub path: Vec<u16>,
    seed: u64,
}

impl Fresh {
    pub const NODES: u16 = 400;
    pub const HOPS: usize = 20;
    pub const FORWARDER_HOP: usize = 10;
    /// One packet in this many is tampered with.
    pub const TAMPER_EVERY: u64 = 4;

    pub fn new(seed: u64) -> Self {
        Fresh {
            deployment: Deployment::new("fresh", seed, Self::NODES),
            path: random_path(&mut rng(seed, 11), Self::NODES, Self::HOPS),
            seed,
        }
    }

    pub fn source(&self) -> u16 {
        self.path[0]
    }

    pub fn forwarder(&self) -> u16 {
        self.path[Self::FORWARDER_HOP]
    }

    /// The nodes a correct verdict may implicate: each mole and its path
    /// neighbours (PNM localizes a mole to within one hop).
    pub fn allowed_suspects(&self) -> Vec<u16> {
        let mut allowed = Vec::new();
        for hop in [0, Self::FORWARDER_HOP] {
            let lo = hop.saturating_sub(1);
            let hi = (hop + 1).min(Self::HOPS - 1);
            allowed.extend_from_slice(&self.path[lo..=hi]);
        }
        allowed
    }

    pub fn packets(&self, keys: &KeyStore, count: usize) -> Vec<Packet> {
        let scheme = ProbabilisticNestedMarking::paper_default(Self::HOPS);
        let mut rng = rng(self.seed, 12);
        let key = |id: u16| *keys.key(id).expect("moles are provisioned");
        let mut source = SourceMole::new(NodeId(self.source()), key(self.source()));
        source.fake_location = Location::new(40.0, 40.0);
        let honest_plan = AttackPlan {
            marking: MoleMarking::Honest,
            ..AttackPlan::passive()
        };
        let tamper_plan = AttackPlan {
            alter: Some(AlterStrategy::Index(0)),
            marking: MoleMarking::Honest,
            ..AttackPlan::passive()
        };
        let x = self.forwarder();
        let mut honest = ForwardingMole::new(NodeId(x), key(x), honest_plan);
        let mut tamper = ForwardingMole::new(NodeId(x), key(x), tamper_plan);
        (0..count as u64)
            .map(|i| {
                let mut pkt = source.inject(&mut rng);
                mark_along(
                    keys,
                    &scheme,
                    &self.path[1..Self::FORWARDER_HOP],
                    &mut pkt,
                    &mut rng,
                );
                let mole = if i % Self::TAMPER_EVERY == 0 {
                    &mut tamper
                } else {
                    &mut honest
                };
                mole.process(&mut pkt, &scheme, &mut rng);
                mark_along(
                    keys,
                    &scheme,
                    &self.path[Self::FORWARDER_HOP + 1..],
                    &mut pkt,
                    &mut rng,
                );
                pkt
            })
            .collect()
    }
}

/// `durable_hot`: the paper's 20-node path (ids `0..20`) carrying 8
/// reports, each re-delivered many times with fresh marks, so every
/// report stays in the default anonymous-ID table cache. The report
/// bodies are fixed, so every seed spreads them over the pool's shards
/// the same way; the seed varies the keys and the marks.
pub struct Hot {
    pub deployment: Deployment,
    seed: u64,
}

impl Hot {
    pub const NODES: u16 = 20;
    pub const REPORTS: u64 = 8;

    pub fn new(seed: u64) -> Self {
        Hot {
            deployment: Deployment::new("hot", seed, Self::NODES),
            seed,
        }
    }

    pub fn packets(&self, keys: &KeyStore, count: usize) -> Vec<Packet> {
        let scheme = ProbabilisticNestedMarking::paper_default(Self::NODES as usize);
        let path: Vec<u16> = (0..Self::NODES).collect();
        let mut rng = rng(self.seed, 21);
        (0..count as u64)
            .map(|i| {
                let r = i % Self::REPORTS;
                let report = Report::new(
                    format!("hot-{r}").into_bytes(),
                    Location::new(r as f32 * 5.0, 1.0),
                    r,
                );
                let mut pkt = Packet::new(report);
                mark_along(keys, &scheme, &path, &mut pkt, &mut rng);
                pkt
            })
            .collect()
    }
}
