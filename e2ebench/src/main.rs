//! `dg-e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! dg-e2ebench --workload flood_1m|phase_sweep|dense_grid --seed N
//!             --seconds S --trace 0|1
//! ```
//!
//! Runs one workload from `POST /sweep` to the served artifact on an
//! in-process daemon over loopback TCP, checks every output, and prints
//! as its last line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this
//! crate for the workloads and the layer map.
//!
//! Exit codes: 0 on success, 1 when a correctness check or a sweep
//! fails, 2 on bad arguments or an armed fault plan.

mod client;
mod machine;
mod pipeline;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use machine::{Machine, WorkingSet};
use pipeline::{Options, Outcome, Workload};

fn parse_args() -> Result<(&'static Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(pipeline::workload(&value).ok_or_else(|| {
                    let names: Vec<_> = pipeline::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (known: {names:?})")
                })?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                opts.seconds =
                    Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn print_result(out: &Outcome, correct: bool) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("dg-e2ebench: {msg}");
            exit(2);
        }
    };
    // Injected faults would make the timings measure recovery, not the
    // program.
    if std::env::var_os("DG_FAULT").is_some_and(|v| !v.is_empty()) || dg_fault::enabled() {
        eprintln!("dg-e2ebench: refusing to run with a DG_FAULT plan armed");
        exit(2);
    }

    let machine = Machine::detect();
    let n = 1 << 20;
    println!(
        "dg-e2ebench workload={} seed={} seconds={} trace={}",
        workload.name,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace)
    );
    println!("machine {}", machine.to_json());
    println!(
        "problem {{\"workload\": \"{}\", {}, \"flood_1m_working_set\": {}}}",
        workload.name,
        workload.describe(),
        WorkingSet::sharded_sparse(n, 1.5 / n as f64, 0.5).to_json()
    );

    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = pipeline::run(workload, &opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("dg-e2ebench: {msg}");
            exit(1);
        }
    };

    for note in &out.notes {
        println!("{note}");
    }
    let t = &out.tally;
    println!(
        "requests and trials: attempted={} failed={} error_rate={}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted as f64
    );
    for m in out.metrics.iter().chain(&out.text_only) {
        println!(
            "  {:<28} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &out.failures {
        eprintln!("dg-e2ebench: check failed: {f}");
    }
    let correct = out.failures.is_empty();
    print_result(&out, correct);
    if !correct {
        exit(1);
    }
}
