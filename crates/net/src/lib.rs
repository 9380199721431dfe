//! Sensor-network simulation substrate for the PNM reproduction.
//!
//! The paper evaluates PNM on multi-hop forwarding paths in a static
//! sensor network (§2.1, §6.2). This crate provides that substrate, built
//! from scratch:
//!
//! - [`topology`] — chain / grid / random-geometric deployments with a
//!   fixed radio range.
//! - [`routing`] — stable sink-rooted routes: BFS tree (TinyDB-style) and
//!   greedy geographic forwarding (GPSR-style).
//! - [`radio`] — Mica2-like radio timing (19.2 kbps, ~50 pkt/s) and loss.
//! - [`faults`] — injectable link faults: Gilbert–Elliott bursty loss,
//!   duplication, bounded reordering, bit corruption.
//! - [`energy`] — per-node transmit/receive energy accounting.
//! - [`des`] — a deterministic discrete-event queue.
//! - [`network`] — the composed simulator, with a [`NodeHandler`] hook
//!   where marking schemes and moles plug in.
//!
//! # Examples
//!
//! ```
//! use pnm_net::{Network, NodeDecision, Topology};
//! use pnm_wire::{Location, Packet, Report};
//!
//! let net = Network::new(Topology::chain(10, 10.0));
//! let mut forward_all = |_node: u16,
//!                        _pkt: &mut Packet,
//!                        _now: u64,
//!                        _rng: &mut rand::rngs::StdRng| NodeDecision::Forward;
//! let report = net.simulate_stream(
//!     0,
//!     5,
//!     20_000,
//!     |seq| Packet::new(Report::new(vec![], Location::default(), seq)),
//!     &mut forward_all,
//!     7,
//! );
//! assert_eq!(report.deliveries.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod dynamics;
pub mod energy;
pub mod faults;
pub mod graph;
pub mod network;
pub mod radio;
pub mod routing;
pub mod topology;
pub mod workload;

pub use des::EventQueue;
pub use dynamics::{heal_tree, relative_order_preserved, FailureSet};
pub use energy::{EnergyLedger, EnergyModel};
pub use faults::{FaultPlan, GilbertElliott};
pub use graph::{cut_vertices, stranded_by};
pub use network::{
    Delivery, FaultCounters, GarbledDelivery, Injection, Network, NodeDecision, NodeHandler,
    SimReport,
};
pub use radio::RadioModel;
pub use routing::{NextHop, RoutingTable};
pub use topology::Topology;
pub use workload::ArrivalProcess;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::routing::{NextHop, RoutingTable};
    use crate::topology::Topology;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// BFS tree routes are always loop-free and monotone in hop count.
        #[test]
        fn tree_routes_loop_free(n in 1u16..60, seed in any::<u64>()) {
            let topo = Topology::random_geometric(n, 100.0, 35.0, seed);
            let table = RoutingTable::tree(&topo);
            for id in 0..n {
                if let Some(path) = table.path_to_sink(id) {
                    let set: std::collections::HashSet<u16> = path.iter().copied().collect();
                    prop_assert_eq!(set.len(), path.len());
                    for w in path.windows(2) {
                        prop_assert_eq!(
                            table.hops_to_sink(w[0]).unwrap(),
                            table.hops_to_sink(w[1]).unwrap() + 1
                        );
                    }
                }
            }
        }

        /// Geographic routes strictly decrease distance to the sink at
        /// every hop, hence are loop-free.
        #[test]
        fn geographic_routes_decrease_distance(n in 1u16..60, seed in any::<u64>()) {
            let topo = Topology::random_geometric(n, 100.0, 35.0, seed);
            let table = RoutingTable::geographic(&topo);
            let sink = topo.sink_position();
            for id in 0..n {
                if let NextHop::Node(v) = table.next_hop(id) {
                    prop_assert!(
                        topo.position(v).distance(&sink) < topo.position(id).distance(&sink)
                    );
                }
            }
        }

        /// A node has a tree route iff it is in the sink's connected
        /// component (coverage == connectivity).
        #[test]
        fn tree_coverage_matches_connectivity(n in 1u16..40, seed in any::<u64>()) {
            let topo = Topology::random_geometric(n, 120.0, 30.0, seed);
            let table = RoutingTable::tree(&topo);
            prop_assert_eq!(topo.is_connected(), (table.coverage() - 1.0).abs() < 1e-12);
        }
    }
}
