//! Interactive traceback demo: watch the sink corner a colluding mole.
//!
//! ```text
//! trace-demo [--hops N] [--mole POS] [--attack KIND] [--scheme NAME]
//!            [--packets L] [--seed S] [--every K]
//! ```
//!
//! Attacks: no-mark, mark-insertion, mark-removal, mark-reordering,
//! mark-altering, selective-dropping, identity-swapping.
//! Schemes: pnm (default), nested, extended-ams, plain, prob-nested-plain-id.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use pnm_adversary::{AttackKind, AttackPlan, ForwardingMole, MoleAction, SourceMole};
use pnm_core::{Localization, NodeContext, SinkConfig, SinkEngine};
use pnm_sim::{PathScenario, SchemeKind};
use pnm_wire::NodeId;

struct Options {
    hops: u16,
    mole: u16,
    attack: AttackKind,
    scheme: SchemeKind,
    packets: usize,
    seed: u64,
    every: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            hops: 10,
            mole: 5,
            attack: AttackKind::SelectiveDrop,
            scheme: SchemeKind::Pnm,
            packets: 300,
            seed: 2007,
            every: 25,
        }
    }
}

fn parse_attack(s: &str) -> Option<AttackKind> {
    AttackKind::all().into_iter().find(|a| a.as_str() == s)
}

fn parse_scheme(s: &str) -> Option<SchemeKind> {
    SchemeKind::all().into_iter().find(|k| k.name() == s)
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--hops" => o.hops = value("--hops")?.parse().map_err(|e| format!("{e}"))?,
            "--mole" => o.mole = value("--mole")?.parse().map_err(|e| format!("{e}"))?,
            "--packets" => o.packets = value("--packets")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--every" => o.every = value("--every")?.parse().map_err(|e| format!("{e}"))?,
            "--attack" => {
                let v = value("--attack")?;
                o.attack = parse_attack(&v).ok_or(format!("unknown attack {v}"))?;
            }
            "--scheme" => {
                let v = value("--scheme")?;
                o.scheme = parse_scheme(&v).ok_or(format!("unknown scheme {v}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.mole >= o.hops {
        return Err("--mole must be on the path (< --hops)".into());
    }
    if o.every == 0 {
        return Err("--every must be at least 1".into());
    }
    Ok(o)
}

/// Renders the chain with the sink's current knowledge.
fn render_chain(hops: u16, mole: u16, observed: &[NodeId], suspect: Option<NodeId>) {
    let mut line = String::from("  S☠ ─");
    for v in 0..hops {
        let id = NodeId(v);
        let seen = observed.contains(&id);
        let cell = match (Some(id) == suspect, v == mole, seen) {
            (true, _, _) => format!("[v{v}]"),
            (_, true, _) => format!("X{v}☠"),
            (_, _, true) => format!("v{v}"),
            (_, _, false) => format!("·{v}"),
        };
        line.push_str(&format!(" {cell} ─"));
    }
    line.push_str(" SINK");
    println!("{line}");
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "trace-demo: {} vs {} | {}-hop chain, forwarding mole X at v{}, source mole S upstream \
         of v0, {} packets\n(☠ marks ground-truth moles the sink must find; [vK] = current \
         suspect; ·K = mark not yet collected)\n",
        o.scheme.name(),
        o.attack,
        o.hops,
        o.mole,
        o.packets
    );

    let scenario = PathScenario::paper(o.hops);
    let keys = Arc::new(scenario.keystore(1));
    let scheme = o.scheme.build(scenario.config());
    let source_id = NodeId(o.hops);
    let mut source = SourceMole::new(source_id, *keys.key(source_id.raw()).unwrap());
    let plan = AttackPlan::canonical(o.attack, &[0]);
    let mut mole = ForwardingMole::new(NodeId(o.mole), *keys.key(o.mole).unwrap(), plan)
        .with_partner(source_id, *keys.key(source_id.raw()).unwrap());

    let mut sink = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(o.scheme.verify_mode()));
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut dropped = 0usize;

    for seq in 1..=o.packets {
        let mut pkt = source.inject(&mut rng);
        if o.attack == AttackKind::IdentitySwap {
            let ctx = if rng.next_u64() & 1 == 0 {
                NodeContext::new(source_id, *keys.key(source_id.raw()).unwrap())
            } else {
                NodeContext::new(NodeId(o.mole), *keys.key(o.mole).unwrap())
            };
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        let mut was_dropped = false;
        for hop in 0..o.hops {
            if hop == o.mole {
                if mole.process(&mut pkt, scheme.as_ref(), &mut rng) == MoleAction::Dropped {
                    was_dropped = true;
                    break;
                }
            } else {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
        }
        if was_dropped {
            dropped += 1;
            continue;
        }
        sink.ingest(&pkt);

        if seq % o.every == 0 || seq == o.packets {
            let observed: Vec<NodeId> = sink.reconstructor().observed_nodes().collect();
            let loc = sink.localize();
            let suspect = match &loc {
                Localization::MostUpstream(c) => Some(*c),
                _ => None,
            };
            println!(
                "after {seq:>4} pkts ({dropped} dropped): {} marks collected, {}",
                observed.len(),
                match &loc {
                    Localization::MostUpstream(c) => format!("suspect = {c}"),
                    Localization::Ambiguous(c) => format!("{} candidates", c.len()),
                    Localization::Loop { members, junction } =>
                        format!("LOOP of {} nodes, junction {junction:?}", members.len()),
                    Localization::NoEvidence => "no evidence".to_string(),
                }
            );
            render_chain(o.hops, o.mole, &observed, suspect);
        }
    }

    println!();
    let c = sink.counters();
    println!(
        "sink pipeline: {} packets, {} marks verified ({} rejected), {} MAC evaluations for \
         anon-id resolution, {} anon-table builds ({} cache hits)",
        c.packets,
        c.marks_verified,
        c.marks_rejected,
        c.hash_count,
        c.table_builds,
        c.table_cache_hits
    );
    match sink.localize() {
        Localization::MostUpstream(c) => {
            let caught = c.raw() == o.mole
                || c.raw().abs_diff(o.mole) == 1
                || c == source_id
                || c.raw() == 0;
            println!(
                "verdict: the sink pins {c}'s one-hop neighborhood — {}",
                if caught {
                    "a mole is inside it. CAUGHT."
                } else {
                    "no mole there. The sink was MISLED."
                }
            );
        }
        Localization::Loop { junction, .. } => {
            println!(
                "verdict: identity-swap loop found; the mole hides at the junction {junction:?}'s \
                 neighborhood. CAUGHT."
            );
        }
        other => println!("verdict: inconclusive ({other:?}) — the attack hid the moles."),
    }
    ExitCode::SUCCESS
}
