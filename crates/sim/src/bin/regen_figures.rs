//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! regen-figures [fig4|fig5|fig6|fig7|attack-matrix|latency|chaos|all]
//!               [--runs N] [--csv] [--packets N]
//! ```
//!
//! Defaults follow the paper: 5000 runs for Figure 5, 100 runs for
//! Figures 6/7. Use `--runs` to trade fidelity for speed.

use std::env;
use std::process::ExitCode;

use pnm_sim::{
    attack_matrix, background_table, baselines_table, chaos_table, dynamics_table,
    field_study_table, fig4, fig5, fig67, filtering_table, frames_table, latency_table,
    mac_width_table, one_by_one_table, overhead_table, tradeoff_table, AttackScenario, ChaosConfig,
    Table,
};

struct Options {
    target: String,
    runs: Option<usize>,
    csv: bool,
    packets: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut target = None;
    let mut runs = None;
    let mut csv = false;
    let mut packets = 80;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                let v = args.next().ok_or("--runs needs a value")?;
                runs = Some(v.parse::<usize>().map_err(|e| format!("--runs: {e}"))?);
            }
            "--packets" => {
                let v = args.next().ok_or("--packets needs a value")?;
                packets = v.parse::<u64>().map_err(|e| format!("--packets: {e}"))?;
            }
            "--csv" => csv = true,
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(other.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Options {
        target: target.unwrap_or_else(|| "all".to_string()),
        runs,
        csv,
        packets,
    })
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("# {}\n{}", table.title, table.to_csv());
    } else {
        println!("{table}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: regen-figures [fig4|fig5|fig6|fig7|attack-matrix|latency|background|\
                 dynamics|overhead|chaos|all] [--runs N] [--csv] [--packets N]"
            );
            return ExitCode::FAILURE;
        }
    };

    let fig5_runs = opts.runs.unwrap_or(5000);
    let fig67_runs = opts.runs.unwrap_or(100);

    match opts.target.as_str() {
        "fig4" => emit(&fig4(opts.packets), opts.csv),
        "fig5" => emit(&fig5(fig5_runs, 40), opts.csv),
        "fig6" => emit(&fig67(fig67_runs).0, opts.csv),
        "fig7" => emit(&fig67(fig67_runs).1, opts.csv),
        "fig67" => {
            let (f6, f7) = fig67(fig67_runs);
            emit(&f6, opts.csv);
            emit(&f7, opts.csv);
        }
        "attack-matrix" => emit(
            &attack_matrix(&AttackScenario::default_cell(2024)),
            opts.csv,
        ),
        "latency" => emit(&latency_table(1500, 50.0, 7), opts.csv),
        "background" => emit(&background_table(300, 7), opts.csv),
        "dynamics" => emit(&dynamics_table(400, 7), opts.csv),
        "overhead" => emit(&overhead_table(200, 7), opts.csv),
        "one-by-one" => emit(&one_by_one_table(300, 11), opts.csv),
        "filtering" => emit(&filtering_table(10, 600, 7), opts.csv),
        "baselines" => emit(&baselines_table(10, 300, 7), opts.csv),
        "tradeoff" => emit(&tradeoff_table(20, 7), opts.csv),
        "mac-width" => emit(&mac_width_table(4000, 7), opts.csv),
        "field-study" => emit(&field_study_table(3, 300, 7), opts.csv),
        "frames" => emit(&frames_table(2000, 0.01, 7), opts.csv),
        "chaos" => emit(&chaos_table(&ChaosConfig::full()), opts.csv),
        "all" => {
            emit(&fig4(opts.packets), opts.csv);
            emit(&fig5(fig5_runs, 40), opts.csv);
            let (f6, f7) = fig67(fig67_runs);
            emit(&f6, opts.csv);
            emit(&f7, opts.csv);
            emit(
                &attack_matrix(&AttackScenario::default_cell(2024)),
                opts.csv,
            );
            emit(&latency_table(1500, 50.0, 7), opts.csv);
            emit(&background_table(300, 7), opts.csv);
            emit(&dynamics_table(400, 7), opts.csv);
            emit(&overhead_table(200, 7), opts.csv);
            emit(&one_by_one_table(300, 11), opts.csv);
            emit(&filtering_table(10, 600, 7), opts.csv);
            emit(&baselines_table(10, 300, 7), opts.csv);
            emit(&tradeoff_table(20, 7), opts.csv);
            emit(&mac_width_table(4000, 7), opts.csv);
            emit(&field_study_table(3, 300, 7), opts.csv);
            emit(&frames_table(2000, 0.01, 7), opts.csv);
            emit(&chaos_table(&ChaosConfig::full()), opts.csv);
        }
        other => {
            eprintln!("error: unknown target {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
