//! The composed network simulator: topology + routing + radio + energy,
//! driving packets hop by hop through user-supplied node behavior.
//!
//! The [`NodeHandler`] callback is where marking schemes and moles plug in:
//! `pnm-sim` installs honest markers on legitimate nodes and
//! `pnm-adversary` moles at compromised positions. This crate stays
//! independent of those policies.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_obs::Tracer;
use pnm_wire::Packet;

use crate::des::EventQueue;
use crate::energy::{EnergyLedger, EnergyModel};
use crate::faults::{FaultPlan, FaultState};
use crate::radio::RadioModel;
use crate::routing::{NextHop, RoutingTable};
use crate::topology::Topology;

/// What a node does with a packet it is about to forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeDecision {
    /// Transmit toward the sink (after any in-place manipulation).
    Forward,
    /// Silently drop the packet.
    Drop,
}

/// Per-node forwarding behavior: marking schemes, moles, filters.
pub trait NodeHandler {
    /// Called once per node per packet, before transmission. May mutate
    /// the packet (e.g., append a mark) and decides whether to forward.
    fn on_forward(
        &mut self,
        node: u16,
        packet: &mut Packet,
        now_us: u64,
        rng: &mut StdRng,
    ) -> NodeDecision;
}

impl<F> NodeHandler for F
where
    F: FnMut(u16, &mut Packet, u64, &mut StdRng) -> NodeDecision,
{
    fn on_forward(
        &mut self,
        node: u16,
        packet: &mut Packet,
        now_us: u64,
        rng: &mut StdRng,
    ) -> NodeDecision {
        self(node, packet, now_us, rng)
    }
}

/// A packet injection request: `source` originates `packet` at `time_us`.
#[derive(Clone, Debug)]
pub struct Injection {
    /// Originating node.
    pub source: u16,
    /// The packet to inject (marks may be pre-loaded by a source mole).
    pub packet: Packet,
    /// Absolute injection time in microseconds.
    pub time_us: u64,
}

/// One packet received at the sink.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The packet exactly as the sink received it.
    pub packet: Packet,
    /// Arrival time in microseconds.
    pub time_us: u64,
    /// The node that originated it (ground truth, for evaluation only —
    /// the sink does not see this).
    pub source: u16,
}

/// A frame that reached the sink so bit-corrupted it no longer decodes.
///
/// Mid-path, such frames are dropped (the receiving node's decoder rejects
/// them); on the final hop the sink sees the raw bytes and must reject
/// them itself — this is the input class that exercises
/// `SinkEngine::ingest_bytes` totality.
#[derive(Clone, Debug)]
pub struct GarbledDelivery {
    /// The corrupted frame exactly as received.
    pub bytes: Vec<u8>,
    /// Arrival time in microseconds.
    pub time_us: u64,
    /// The node that originated it (ground truth, for evaluation only).
    pub source: u16,
}

/// Tallies of every fault the [`FaultPlan`] injected during one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transmissions eaten by the Gilbert–Elliott bursty channel.
    pub burst_losses: usize,
    /// Transmissions duplicated at the receiver.
    pub duplicates: usize,
    /// Transmissions held back by extra reordering delay.
    pub reordered: usize,
    /// Transmissions whose payload suffered at least one bit flip.
    pub corrupted: usize,
    /// Corrupted frames dropped mid-path because they no longer decode.
    pub corrupt_drops: usize,
    /// Corrupted frames that reached the sink undecodable (see
    /// [`SimReport::garbled`]).
    pub garbled_deliveries: usize,
}

impl FaultCounters {
    /// Total transmissions affected by any injected fault.
    pub fn total(&self) -> usize {
        self.burst_losses + self.duplicates + self.reordered + self.corrupted
    }
}

/// Aggregate outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Packets received at the sink, in arrival order.
    pub deliveries: Vec<Delivery>,
    /// Undecodable corrupted frames received at the sink, in arrival order.
    pub garbled: Vec<GarbledDelivery>,
    /// Packets lost to radio errors.
    pub radio_losses: usize,
    /// Packets dropped by node behavior (filters, selective-drop moles).
    pub node_drops: usize,
    /// Packets that hit a routing dead end.
    pub undeliverable: usize,
    /// Per-fault injection tallies (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Per-node energy expenditure.
    pub ledger: EnergyLedger,
    /// Time of the last event processed, in microseconds.
    pub end_time_us: u64,
}

impl SimReport {
    /// Fraction of injected packets that reached the sink.
    pub fn delivery_rate(&self, injected: usize) -> f64 {
        if injected == 0 {
            return 1.0;
        }
        self.deliveries.len() as f64 / injected as f64
    }
}

/// A static sensor network ready to simulate.
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    routing: RoutingTable,
    radio: RadioModel,
    energy: EnergyModel,
    contention: bool,
    faults: Option<FaultPlan>,
    tracer: Tracer,
}

/// In-flight event: `holder` is about to run its forwarding behavior.
#[derive(Clone, Debug)]
struct InFlight {
    holder: u16,
    packet: Packet,
    source: u16,
}

impl Network {
    /// Assembles a network with BFS tree routing and Mica2 radio/energy
    /// defaults.
    pub fn new(topology: Topology) -> Self {
        let routing = RoutingTable::tree(&topology);
        Network {
            topology,
            routing,
            radio: RadioModel::mica2(),
            energy: EnergyModel::mica2(),
            contention: false,
            faults: None,
            tracer: Tracer::noop(),
        }
    }

    /// Enables per-node radio contention: a node serializes its
    /// transmissions, so a packet arriving while the radio is busy queues
    /// behind the transmission in progress (half-duplex, FIFO). Off by
    /// default, matching the paper's idealized per-packet analysis.
    pub fn with_contention(mut self) -> Self {
        self.contention = true;
        self
    }

    /// Replaces the routing table (e.g., geographic forwarding).
    pub fn with_routing(mut self, routing: RoutingTable) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the radio model.
    pub fn with_radio(mut self, radio: RadioModel) -> Self {
        self.radio = radio;
        self
    }

    /// Replaces the energy model.
    pub fn with_energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Installs a fault-injection plan (bursty loss, duplication,
    /// reordering, corruption). The plan draws from its own seeded RNG, so
    /// an all-off plan reproduces the fault-free run bit-for-bit.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a tracer: each injected fault then emits an instant event
    /// (`net.fault.burst_loss`, `net.fault.corrupt`, `net.fault.reorder`,
    /// `net.fault.duplicate`, `net.fault.corrupt_drop`,
    /// `net.fault.garbled`) with the faulting node/frame context. The
    /// default noop tracer costs one branch per fault site.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The deployed topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing table in force.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The radio model in force.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// Runs a discrete-event simulation of the given injections.
    ///
    /// Each hop: the holder's [`NodeHandler`] runs (possibly mutating the
    /// packet), then the packet is transmitted to the holder's next hop
    /// with radio delay/loss and energy charges. Packets reaching the sink
    /// are recorded as [`Delivery`]s.
    pub fn simulate<H: NodeHandler>(
        &self,
        injections: Vec<Injection>,
        handler: &mut H,
        seed: u64,
    ) -> SimReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue: EventQueue<InFlight> = EventQueue::new();
        let injected = injections.len();
        for inj in injections {
            queue.schedule(
                inj.time_us,
                InFlight {
                    holder: inj.source,
                    packet: inj.packet,
                    source: inj.source,
                },
            );
        }

        let mut report = SimReport {
            deliveries: Vec::with_capacity(injected),
            garbled: Vec::new(),
            radio_losses: 0,
            node_drops: 0,
            undeliverable: 0,
            faults: FaultCounters::default(),
            ledger: EnergyLedger::new(self.topology.len()),
            end_time_us: 0,
        };
        // Per-node radio-busy horizon for the contention model.
        let mut busy_until = vec![0u64; self.topology.len()];
        // The fault layer draws from its own RNG stream so that enabling
        // an all-off plan cannot perturb the simulation RNG.
        let mut faults = self.faults.map(|p| FaultState::new(p, self.topology.len()));
        let tracer = self.tracer.clone();

        while let Some((now, mut ev)) = queue.pop() {
            report.end_time_us = now;
            // Node behavior (marking, mole manipulation, filtering).
            match handler.on_forward(ev.holder, &mut ev.packet, now, &mut rng) {
                NodeDecision::Drop => {
                    report.node_drops += 1;
                    continue;
                }
                NodeDecision::Forward => {}
            }
            // Transmission toward the next hop.
            let bytes = ev.packet.encoded_len();
            let next = self.routing.next_hop(ev.holder);
            if next == NextHop::Unreachable {
                report.undeliverable += 1;
                continue;
            }
            report.ledger.charge_tx(&self.energy, ev.holder, bytes);
            // Injected bursty loss consumes the transmission just like a
            // radio error (energy already spent).
            if let Some(fs) = faults.as_mut() {
                if fs.burst_lost(ev.holder) {
                    report.faults.burst_losses += 1;
                    tracer.event_with("net.fault.burst_loss", |f| {
                        f.push(("node", ev.holder.into()));
                        f.push(("at_sim_us", now.into()));
                    });
                    continue;
                }
            }
            if self.radio.is_lost(&mut rng) {
                report.radio_losses += 1;
                continue;
            }
            // Injected corruption: re-encode the frame, flip bits, try to
            // decode what the receiver would see. A frame that no longer
            // decodes is dropped mid-path; on the sink hop its raw bytes
            // are delivered as a garbled frame.
            let mut garbled_bytes: Option<Vec<u8>> = None;
            if let Some(fs) = faults.as_mut() {
                if fs.plan().corrupt_byte_probability > 0.0 {
                    let mut raw = ev.packet.to_bytes();
                    let flips = fs.corrupt(&mut raw);
                    if flips > 0 {
                        report.faults.corrupted += 1;
                        let decodes = match Packet::from_bytes(&raw) {
                            Ok(p) => {
                                ev.packet = p;
                                true
                            }
                            Err(_) => {
                                garbled_bytes = Some(raw);
                                false
                            }
                        };
                        tracer.event_with("net.fault.corrupt", |f| {
                            f.push(("node", ev.holder.into()));
                            f.push(("flips", flips.into()));
                            f.push(("decodes", decodes.into()));
                        });
                    }
                }
            }
            let delay = self.radio.hop_time_us(bytes);
            // With contention, the transmission waits for the node's radio.
            let tx_start = if self.contention {
                let start = now.max(busy_until[ev.holder as usize]);
                busy_until[ev.holder as usize] = start + delay;
                start
            } else {
                now
            };
            let mut arrival = tx_start + delay;
            // Injected reordering: extra propagation delay that lets later
            // frames overtake this one. Duplication re-delivers the same
            // frame (MAC-layer retransmission whose ack was lost).
            let mut copies = 1usize;
            if let Some(fs) = faults.as_mut() {
                let extra = fs.reorder_delay_us();
                if extra > 0 {
                    report.faults.reordered += 1;
                    tracer.event_with("net.fault.reorder", |f| {
                        f.push(("node", ev.holder.into()));
                        f.push(("delay_us", extra.into()));
                    });
                    arrival += extra;
                }
                if fs.duplicated() {
                    report.faults.duplicates += 1;
                    tracer.event_with("net.fault.duplicate", |f| {
                        f.push(("node", ev.holder.into()));
                    });
                    copies = 2;
                }
            }
            for _ in 0..copies {
                match next {
                    NextHop::Sink => {
                        if let Some(raw) = garbled_bytes.clone() {
                            report.faults.garbled_deliveries += 1;
                            tracer.event_with("net.fault.garbled", |f| {
                                f.push(("source", ev.source.into()));
                                f.push(("bytes", raw.len().into()));
                            });
                            report.garbled.push(GarbledDelivery {
                                bytes: raw,
                                time_us: arrival,
                                source: ev.source,
                            });
                        } else {
                            report.deliveries.push(Delivery {
                                packet: ev.packet.clone(),
                                time_us: arrival,
                                source: ev.source,
                            });
                        }
                        // Record completion time including the final hop.
                        report.end_time_us = report.end_time_us.max(arrival);
                    }
                    NextHop::Node(v) => {
                        report.ledger.charge_rx(&self.energy, v, bytes);
                        if garbled_bytes.is_some() {
                            // The receiver's decoder rejects the frame.
                            report.faults.corrupt_drops += 1;
                            tracer.event_with("net.fault.corrupt_drop", |f| {
                                f.push(("node", v.into()));
                            });
                            continue;
                        }
                        queue.schedule(
                            arrival,
                            InFlight {
                                holder: v,
                                packet: ev.packet.clone(),
                                source: ev.source,
                            },
                        );
                    }
                    NextHop::Unreachable => unreachable!("handled above"),
                }
            }
        }
        // Variable packet sizes mean final-hop completion can be slightly
        // out of order relative to processing; present arrival order.
        report.deliveries.sort_by_key(|d| d.time_us);
        report.garbled.sort_by_key(|g| g.time_us);
        report
    }

    /// Convenience: injects `count` packets from `source` at a fixed
    /// interval, built by `make_packet(seq)`.
    pub fn simulate_stream<H, F>(
        &self,
        source: u16,
        count: usize,
        interval_us: u64,
        mut make_packet: F,
        handler: &mut H,
        seed: u64,
    ) -> SimReport
    where
        H: NodeHandler,
        F: FnMut(u64) -> Packet,
    {
        let injections = (0..count)
            .map(|seq| Injection {
                source,
                packet: make_packet(seq as u64),
                time_us: seq as u64 * interval_us,
            })
            .collect();
        self.simulate(injections, handler, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_wire::{Location, Report};

    fn forward_all(_node: u16, _packet: &mut Packet, _now: u64, _rng: &mut StdRng) -> NodeDecision {
        NodeDecision::Forward
    }

    fn report(seq: u64) -> Packet {
        Packet::new(Report::new(
            format!("r{seq}").into_bytes(),
            Location::default(),
            seq,
        ))
    }

    #[test]
    fn chain_delivers_everything_lossless() {
        let net = Network::new(Topology::chain(10, 10.0));
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 20, 20_000, report, &mut handler, 1);
        assert_eq!(rep.deliveries.len(), 20);
        assert_eq!(rep.delivery_rate(20), 1.0);
        assert_eq!(rep.radio_losses, 0);
        // Arrival order preserved for a FIFO chain.
        let seqs: Vec<u64> = rep
            .deliveries
            .iter()
            .map(|d| d.packet.report.timestamp)
            .collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn deliveries_carry_time_and_source() {
        let net = Network::new(Topology::chain(5, 10.0));
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 1, 0, report, &mut handler, 1);
        let d = &rep.deliveries[0];
        assert_eq!(d.source, 0);
        // 5 hops, each ≥ per-hop latency.
        assert!(d.time_us >= 5 * 2_000, "time = {}", d.time_us);
    }

    #[test]
    fn handler_sees_every_hop() {
        let net = Network::new(Topology::chain(4, 10.0));
        let mut visits: Vec<u16> = Vec::new();
        let mut handler = |node: u16, _p: &mut Packet, _t: u64, _r: &mut StdRng| {
            visits.push(node);
            NodeDecision::Forward
        };
        net.simulate_stream(0, 1, 0, report, &mut handler, 1);
        assert_eq!(visits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn node_drop_stops_the_packet() {
        let net = Network::new(Topology::chain(6, 10.0));
        let mut handler = |node: u16, _p: &mut Packet, _t: u64, _r: &mut StdRng| {
            if node == 3 {
                NodeDecision::Drop
            } else {
                NodeDecision::Forward
            }
        };
        let rep = net.simulate_stream(0, 5, 1000, report, &mut handler, 1);
        assert_eq!(rep.deliveries.len(), 0);
        assert_eq!(rep.node_drops, 5);
    }

    #[test]
    fn lossy_radio_loses_some() {
        let net =
            Network::new(Topology::chain(10, 10.0)).with_radio(RadioModel::mica2().with_loss(0.2));
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 200, 1000, report, &mut handler, 3);
        assert!(rep.radio_losses > 0);
        assert!(rep.deliveries.len() < 200);
        // 10 hops at 20% loss → ~10% end-to-end delivery.
        let rate = rep.delivery_rate(200);
        assert!((0.02..0.35).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn energy_charged_along_path() {
        let net = Network::new(Topology::chain(3, 10.0));
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 1, 0, report, &mut handler, 1);
        // Node 0 transmits only; nodes 1,2 receive and transmit.
        assert!(rep.ledger.node_total_nj(0) > 0);
        assert!(rep.ledger.node_total_nj(1) > rep.ledger.node_total_nj(0));
        assert_eq!(rep.ledger.network_total_nj(), {
            let m = EnergyModel::mica2();
            let bytes = report(0).encoded_len() as u64;
            // 3 tx + 2 rx of the same-size packet.
            3 * m.tx_nj_per_byte * bytes + 2 * m.rx_nj_per_byte * bytes
        });
    }

    #[test]
    fn disconnected_source_is_undeliverable() {
        let topo = Topology::random_geometric(10, 1000.0, 5.0, 1);
        let net = Network::new(topo);
        // Find an unreachable node.
        let u = (0..10u16)
            .find(|&i| net.routing().hops_to_sink(i).is_none())
            .expect("isolated node exists");
        let mut handler = forward_all;
        let rep = net.simulate_stream(u, 3, 0, report, &mut handler, 1);
        assert_eq!(rep.deliveries.len(), 0);
        assert_eq!(rep.undeliverable, 3);
    }

    #[test]
    fn grid_routes_deliver() {
        let net = Network::new(Topology::grid(5, 5, 10.0));
        let mut handler = forward_all;
        let rep = net.simulate_stream(24, 10, 5_000, report, &mut handler, 2);
        assert_eq!(rep.deliveries.len(), 10);
    }

    #[test]
    fn contention_serializes_a_hotspot() {
        // Two packets injected simultaneously at the same node: without
        // contention both arrive after one hop time; with contention the
        // second waits for the radio.
        let topo = Topology::chain(1, 10.0);
        let injections = |_: ()| {
            vec![
                Injection {
                    source: 0,
                    packet: report(0),
                    time_us: 0,
                },
                Injection {
                    source: 0,
                    packet: report(1),
                    time_us: 0,
                },
            ]
        };
        let mut h1 = forward_all;
        let ideal = Network::new(topo.clone()).simulate(injections(()), &mut h1, 1);
        let mut h2 = forward_all;
        let contended = Network::new(topo)
            .with_contention()
            .simulate(injections(()), &mut h2, 1);
        assert_eq!(ideal.deliveries.len(), 2);
        assert_eq!(contended.deliveries.len(), 2);
        // Idealized: identical arrival times. Contended: strictly later
        // second arrival, by one full transmission time.
        assert_eq!(ideal.deliveries[0].time_us, ideal.deliveries[1].time_us);
        let gap = contended.deliveries[1].time_us - contended.deliveries[0].time_us;
        let hop = RadioModel::mica2().hop_time_us(report(1).encoded_len());
        assert_eq!(gap, hop);
    }

    #[test]
    fn contention_preserves_delivery_count() {
        let net = Network::new(Topology::chain(6, 10.0)).with_contention();
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 40, 1_000, report, &mut handler, 2);
        assert_eq!(rep.deliveries.len(), 40);
        // Arrival order is monotone.
        assert!(rep
            .deliveries
            .windows(2)
            .all(|w| w[0].time_us <= w[1].time_us));
        // Saturated injection (1 ms interval vs ~15 ms service) backs up:
        // the last delivery is far later than the idealized pipeline.
        let mut h2 = forward_all;
        let ideal = Network::new(Topology::chain(6, 10.0))
            .simulate_stream(0, 40, 1_000, report, &mut h2, 2);
        assert!(
            rep.end_time_us > ideal.end_time_us * 2,
            "contended {} vs ideal {}",
            rep.end_time_us,
            ideal.end_time_us
        );
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base =
            Network::new(Topology::chain(8, 10.0)).with_radio(RadioModel::mica2().with_loss(0.1));
        let faulty = base.clone().with_faults(crate::FaultPlan::new(99));
        let mut h1 = forward_all;
        let mut h2 = forward_all;
        let a = base.simulate_stream(0, 50, 1000, report, &mut h1, 42);
        let b = faulty.simulate_stream(0, 50, 1000, report, &mut h2, 42);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        assert_eq!(a.radio_losses, b.radio_losses);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(b.faults, FaultCounters::default());
        assert!(b.garbled.is_empty());
        for (x, y) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.time_us, y.time_us);
        }
    }

    #[test]
    fn bursty_loss_thins_deliveries_and_counts() {
        let plan =
            crate::FaultPlan::new(5).with_burst_loss(crate::GilbertElliott::bursty(0.3, 6.0));
        let net = Network::new(Topology::chain(6, 10.0)).with_faults(plan);
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 100, 1000, report, &mut handler, 3);
        assert!(rep.faults.burst_losses > 0);
        assert_eq!(rep.radio_losses, 0);
        assert!(rep.deliveries.len() < 100);
        assert!(!rep.deliveries.is_empty());
    }

    #[test]
    fn duplication_inflates_deliveries() {
        let plan = crate::FaultPlan::new(8).with_duplication(0.2);
        let net = Network::new(Topology::chain(4, 10.0)).with_faults(plan);
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 50, 1000, report, &mut handler, 3);
        assert!(rep.faults.duplicates > 0);
        assert!(rep.deliveries.len() > 50, "got {}", rep.deliveries.len());
    }

    #[test]
    fn corruption_yields_garbled_or_altered_frames() {
        // Heavy corruption on a short path: some frames arrive garbled
        // (undecodable raw bytes), some are dropped mid-path, and clean
        // deliveries shrink accordingly.
        let plan = crate::FaultPlan::new(2).with_corruption(0.05);
        let net = Network::new(Topology::chain(3, 10.0)).with_faults(plan);
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 200, 1000, report, &mut handler, 3);
        assert!(rep.faults.corrupted > 0);
        assert_eq!(
            rep.faults.garbled_deliveries,
            rep.garbled.len(),
            "garbled counter matches delivered garbled frames"
        );
        assert!(rep.deliveries.len() + rep.garbled.len() <= 200 + rep.faults.duplicates);
    }

    #[test]
    fn reordering_shuffles_sink_arrival_order() {
        // Huge extra delays relative to the injection interval let later
        // packets overtake earlier ones end-to-end.
        let plan = crate::FaultPlan::new(4).with_reordering(0.5, 200_000);
        let net = Network::new(Topology::chain(4, 10.0)).with_faults(plan);
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 50, 2_000, report, &mut handler, 3);
        assert!(rep.faults.reordered > 0);
        assert_eq!(rep.deliveries.len(), 50);
        let seqs: Vec<u64> = rep
            .deliveries
            .iter()
            .map(|d| d.packet.report.timestamp)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "no packet overtook another");
    }

    #[test]
    fn faulty_simulation_is_deterministic_in_seeds() {
        let plan = crate::FaultPlan::new(11)
            .with_burst_loss(crate::GilbertElliott::bursty(0.2, 5.0))
            .with_duplication(0.1)
            .with_reordering(0.2, 50_000)
            .with_corruption(0.01);
        let net = Network::new(Topology::chain(6, 10.0)).with_faults(plan);
        let run = |net: &Network| {
            let mut h = forward_all;
            net.simulate_stream(0, 100, 1000, report, &mut h, 42)
        };
        let a = run(&net);
        let b = run(&net);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        for (x, y) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.time_us, y.time_us);
        }
        for (x, y) in a.garbled.iter().zip(&b.garbled) {
            assert_eq!(x.bytes, y.bytes);
        }
    }

    #[test]
    fn fault_events_mirror_report_counters() {
        let plan = crate::FaultPlan::new(11)
            .with_burst_loss(crate::GilbertElliott::bursty(0.2, 5.0))
            .with_duplication(0.1)
            .with_reordering(0.2, 50_000)
            .with_corruption(0.01);
        let (tracer, ring) = Tracer::ring(50_000);
        let net = Network::new(Topology::chain(6, 10.0))
            .with_faults(plan)
            .with_tracer(tracer);
        let mut handler = forward_all;
        let rep = net.simulate_stream(0, 150, 1000, report, &mut handler, 42);
        assert!(rep.faults.total() > 0, "faults actually fired");

        // The trace saw one instant event per counted fault.
        let events = ring.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("net.fault.burst_loss"), rep.faults.burst_losses);
        assert_eq!(count("net.fault.duplicate"), rep.faults.duplicates);
        assert_eq!(count("net.fault.reorder"), rep.faults.reordered);
        assert_eq!(count("net.fault.corrupt"), rep.faults.corrupted);
        assert_eq!(count("net.fault.corrupt_drop"), rep.faults.corrupt_drops);
        assert_eq!(count("net.fault.garbled"), rep.faults.garbled_deliveries);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn instrumentation_does_not_perturb_the_simulation() {
        let plan = crate::FaultPlan::new(7)
            .with_burst_loss(crate::GilbertElliott::bursty(0.3, 4.0))
            .with_corruption(0.02);
        let base = Network::new(Topology::chain(5, 10.0)).with_faults(plan);
        let instrumented = base.clone().with_tracer(Tracer::ring(1024).0);
        let mut h1 = forward_all;
        let mut h2 = forward_all;
        let a = base.simulate_stream(0, 80, 1000, report, &mut h1, 9);
        let b = instrumented.simulate_stream(0, 80, 1000, report, &mut h2, 9);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        assert_eq!(a.end_time_us, b.end_time_us);
        for (x, y) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.time_us, y.time_us);
        }
    }

    #[test]
    fn simulation_is_deterministic_in_seed() {
        let net =
            Network::new(Topology::chain(8, 10.0)).with_radio(RadioModel::mica2().with_loss(0.1));
        let mut h1 = forward_all;
        let mut h2 = forward_all;
        let a = net.simulate_stream(0, 50, 1000, report, &mut h1, 42);
        let b = net.simulate_stream(0, 50, 1000, report, &mut h2, 42);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        assert_eq!(a.radio_losses, b.radio_losses);
        assert_eq!(a.end_time_us, b.end_time_us);
    }

    #[test]
    fn handler_mutations_survive_to_sink() {
        let net = Network::new(Topology::chain(3, 10.0));
        let mut handler = |node: u16, p: &mut Packet, _t: u64, _r: &mut StdRng| {
            p.push_mark(pnm_wire::Mark::unauthenticated(pnm_wire::NodeId(node)));
            NodeDecision::Forward
        };
        let rep = net.simulate_stream(0, 1, 0, report, &mut handler, 1);
        let marks: Vec<u16> = rep.deliveries[0]
            .packet
            .marks
            .iter()
            .filter_map(|m| m.id.as_plain().map(|n| n.raw()))
            .collect();
        assert_eq!(marks, vec![0, 1, 2]);
    }
}
