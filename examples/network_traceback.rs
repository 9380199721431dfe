//! Full-network traceback over the discrete-event simulator.
//!
//! Deploys a 150-node random-geometric sensor field with BFS tree routing
//! and a Mica2 radio, compromises the node farthest from the sink, and
//! lets it flood bogus reports. Every honest node runs PNM. The sink
//! reconstructs the forwarding path, pins the mole's neighborhood, and the
//! run reports wall-clock (simulated) time, energy drained by the attack,
//! and the cost of topology-aware anonymous-ID resolution (§7).
//!
//! ```text
//! cargo run --release --example network_traceback
//! ```

use std::sync::Arc;

use pnm::core::{
    MarkingScheme, MoleLocator, NodeContext, ProbabilisticNestedMarking, SinkConfig, SinkEngine,
    VerifyMode,
};
use pnm::crypto::KeyStore;
use pnm::net::{Network, NodeDecision, RadioModel, Topology};
use pnm::sim::bogus_packet;
use pnm::wire::{NodeId, Packet};
use rand::rngs::StdRng;

const NODES: u16 = 300;
const PACKETS: usize = 400;

fn main() {
    // Deploy: 300 nodes uniformly in a 200 m × 200 m field, 25 m radio —
    // sparse enough for 10+-hop routes, dense enough to stay connected.
    let topology = Topology::random_geometric(NODES, 200.0, 25.0, 42);
    assert!(topology.is_connected(), "field must be connected");
    let net = Network::new(topology.clone()).with_radio(RadioModel::mica2().with_loss(0.02));
    let keys = Arc::new(KeyStore::derive_from_master(b"field-deployment", NODES));

    // The adversary compromises the node with the longest route to the sink.
    let mole = (0..NODES)
        .max_by_key(|&i| net.routing().hops_to_sink(i).unwrap_or(0))
        .expect("nodes exist");
    let path = net.routing().path_to_sink(mole).expect("mole routed");
    println!(
        "deployed {NODES} nodes; mole = v{mole}, {} hops from the sink",
        path.len()
    );

    // Honest nodes mark with PNM; the mole stays silent (no-mark attack).
    let hops = path.len();
    let scheme = ProbabilisticNestedMarking::paper_default(hops);
    let keys_h = Arc::clone(&keys);
    let mut handler = move |node: u16, pkt: &mut Packet, _now: u64, rng: &mut StdRng| {
        if node != mole {
            let ctx = NodeContext::new(NodeId(node), *keys_h.key(node).unwrap());
            scheme.mark(&ctx, pkt, rng);
        }
        NodeDecision::Forward
    };

    // The mole floods bogus reports at the radio's sustainable rate.
    let report = net.simulate_stream(
        mole,
        PACKETS,
        20_000,
        |seq| bogus_packet(seq, 0xF1E1D),
        &mut handler,
        7,
    );
    println!(
        "injected {PACKETS} packets: {} delivered, {} lost to radio, attack burned {:.1} mJ \
         across the network",
        report.deliveries.len(),
        report.radio_losses,
        report.ledger.network_total_mj()
    );

    // Sink side: verify marks, reconstruct the route, localize the mole.
    // The settling point is the first delivery after which the
    // identification never changes again (transient early "unequivocal"
    // states over a partially observed path don't count).
    let mut sink = MoleLocator::new(Arc::clone(&keys), VerifyMode::Nested);
    let mut status = Vec::with_capacity(report.deliveries.len());
    for d in &report.deliveries {
        sink.ingest(&d.packet);
        status.push(sink.unequivocal_source());
    }
    let settled = status.last().copied().flatten().map(|_| {
        let last = *status.last().expect("non-empty");
        let mut idx = status.len();
        while idx > 0 && status[idx - 1] == last {
            idx -= 1;
        }
        (idx + 1, report.deliveries[idx].time_us)
    });

    match sink.unequivocal_source() {
        Some(suspect) => {
            let (pkts, t_us) = settled.expect("settled if unequivocal");
            println!(
                "sink pinned {suspect} as most upstream after {pkts} packets \
                 ({:.1} simulated seconds)",
                t_us as f64 / 1e6
            );
            let neighborhood = topology.neighbors(suspect.raw());
            let caught = suspect.raw() == mole || neighborhood.contains(&mole);
            println!(
                "one-hop neighborhood of {suspect}: {:?} -> mole v{mole} {}",
                neighborhood,
                if caught { "CAUGHT" } else { "missed?!" }
            );
            assert!(caught, "PNM guarantees the mole is one hop away");
        }
        None => println!("not yet unequivocal — inject more packets"),
    }

    // §7: topology-aware anonymous-ID resolution. Verify the last
    // delivered packet on a default engine, which builds the report's table
    // over every node, and on a topology engine, which searches rings
    // around the node resolved for the mark below: same chain, far fewer
    // hashes.
    let last = &report.deliveries.last().expect("deliveries").packet;
    let nested = SinkConfig::new(VerifyMode::Nested);
    let mut exhaustive = SinkEngine::new(Arc::clone(&keys), nested.clone());
    let mut ring = SinkEngine::new(Arc::clone(&keys), nested.topology(topology.adjacency()));
    let chain = exhaustive.ingest(last).chain;
    assert_eq!(ring.ingest(last).chain, chain, "same chain either way");
    let (ring_cost, table_cost) = (ring.counters().hash_count, exhaustive.counters().hash_count);
    println!(
        "anonymous-ID resolution for the last packet: {} marks, {ring_cost} hashes \
         ring-search vs {table_cost} exhaustive ({:.0}x cheaper)",
        last.marks.len(),
        table_cost as f64 / ring_cost.max(1) as f64
    );
}
