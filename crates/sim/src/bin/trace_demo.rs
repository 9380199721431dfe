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
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_adversary::{AttackKind, AttackPlan};
use pnm_core::{Localization, SinkConfig, SinkEngine};
use pnm_sim::{AttackPath, SchemeKind};
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
fn render_chain(
    out: &mut impl Write,
    hops: u16,
    mole: u16,
    observed: &[NodeId],
    suspect: Option<NodeId>,
) -> io::Result<()> {
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
    writeln!(out, "{line}")
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A reader that stops early (`trace-demo | head`) ends the demo quietly.
    match run(&o, &mut io::stdout().lock()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn run(o: &Options, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "trace-demo: {} vs {} | {}-hop chain, forwarding mole X at v{}, source mole S upstream \
         of v0, {} packets\n(☠ marks ground-truth moles the sink must find; [vK] = current \
         suspect; ·K = mark not yet collected)\n",
        o.scheme.name(),
        o.attack,
        o.hops,
        o.mole,
        o.packets
    )?;

    let mut path = AttackPath::paper(o.scheme, o.hops)
        .with_mole(o.mole, AttackPlan::canonical(o.attack, &[0]));
    let mut sink = SinkEngine::new(
        Arc::clone(path.keys()),
        SinkConfig::new(o.scheme.verify_mode()),
    );
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut dropped = 0usize;

    for seq in 1..=o.packets {
        let Some(pkt) = path.inject(&mut rng) else {
            dropped += 1;
            continue;
        };
        sink.ingest(&pkt);

        if seq % o.every == 0 || seq == o.packets {
            let observed: Vec<NodeId> = sink.reconstructor().observed_nodes().collect();
            let loc = sink.localize();
            let suspect = match &loc {
                Localization::MostUpstream(c) => Some(*c),
                _ => None,
            };
            writeln!(
                out,
                "after {seq:>4} pkts ({dropped} dropped): {} marks collected, {}",
                observed.len(),
                match &loc {
                    Localization::MostUpstream(c) => format!("suspect = {c}"),
                    Localization::Ambiguous(c) => format!("{} candidates", c.len()),
                    Localization::Loop { members, junction } =>
                        format!("LOOP of {} nodes, junction {junction:?}", members.len()),
                    Localization::NoEvidence => "no evidence".to_string(),
                }
            )?;
            render_chain(out, o.hops, o.mole, &observed, suspect)?;
        }
    }

    writeln!(out)?;
    let c = sink.counters();
    writeln!(
        out,
        "sink pipeline: {} packets, {} marks verified ({} rejected), {} MAC evaluations for \
         anon-id resolution, {} anon-table builds ({} cache hits)",
        c.packets,
        c.marks_verified,
        c.marks_rejected,
        c.hash_count,
        c.table_builds,
        c.table_cache_hits
    )?;
    match sink.localize() {
        Localization::MostUpstream(c) => {
            let caught = path.suspects().contains(&c);
            writeln!(
                out,
                "verdict: the sink pins {c}'s one-hop neighborhood — {}",
                if caught {
                    "a mole is inside it. CAUGHT."
                } else {
                    "no mole there. The sink was MISLED."
                }
            )
        }
        Localization::Loop { junction, .. } => writeln!(
            out,
            "verdict: identity-swap loop found; the mole hides at the junction {junction:?}'s \
             neighborhood. CAUGHT."
        ),
        other => writeln!(
            out,
            "verdict: inconclusive ({other:?}) — the attack hid the moles."
        ),
    }
}
