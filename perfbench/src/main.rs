//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's record, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans under the work directory.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{record, run, Options, Params};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::catalog::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    // scratch space inside the checkout: the build directory the runner
    // already uses
    let build_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| ".bench_build".into());
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        params: Params::full(),
        work_dir: build_dir.join("perfbench-work"),
        corrupt: false,
    };
    let record = record(&opts);
    println!("record {record}");
    let (outcome, spans) = match run(&opts) {
        Ok(done) => done,
        Err(e) => return usage(&e),
    };
    for finding in &outcome.findings {
        println!("gate: {finding}");
    }
    for (name, value) in &outcome.context {
        println!("context {name} = {value}");
    }
    if let Some(spans) = spans {
        let path = opts.work_dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        if let Err(e) = spans.write(&path, &record) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace {} spans -> {}", spans.len(), path.display());
    }
    let (line, _) = outcome.render(opts.trace);
    println!("{line}");
    ExitCode::SUCCESS
}
