//! The benchmark's self-test at tiny scale: every workload prints every
//! named metric with its unit and passes its gate, `BENCHMARK.json` lists
//! the same metrics, and a deliberately corrupted answer trips the gate.

use std::path::{Path, PathBuf};

use perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::report::Outcome;
use perfbench::{run, Options, Params};

fn work_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfbench-smoke-{tag}-{}", std::process::id()))
}

fn options(workload: &str, trace: bool, corrupt: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.3,
        trace,
        params: Params::smoke(),
        work_dir: work_dir(&format!("{workload}-{trace}-{corrupt}")),
        corrupt,
    }
}

/// The unit printed for `name` in a result line, if the metric is there.
fn printed_unit<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let unit_at = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    let unit = &rest[unit_at..];
    unit.find('"').map(|end| &unit[..end])
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_its_gate() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let opts = options(workload, traced, false);
            let (outcome, trace) = run(&opts).expect("known workload");
            let (line, correct) = outcome.render(traced);
            assert!(correct, "{workload} (traced {traced}): {:?}\n{line}", outcome.findings);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            for def in Outcome::catalogue(traced) {
                assert_eq!(
                    printed_unit(&line, def.name),
                    Some(def.unit),
                    "{workload}: {}",
                    def.name
                );
            }
            if traced {
                let trace = trace.expect("a traced run keeps a trace");
                assert!(!trace.is_empty());
                let path = opts.work_dir.join("trace.json");
                trace.write(&path, &perfbench::record(&opts)).expect("trace written");
            } else {
                // end-to-end metrics are real measurements, never 0
                for def in END_TO_END {
                    assert!(outcome.metrics[def.name] > 0.0, "{workload}: {} is 0", def.name);
                }
            }
            let _ = std::fs::remove_dir_all(&opts.work_dir);
        }
    }
}

#[test]
fn a_corrupted_answer_trips_the_gate() {
    for workload in WORKLOADS {
        let opts = options(workload, false, true);
        let (outcome, _) = run(&opts).expect("known workload");
        let (_, correct) = outcome.render(false);
        assert!(!correct, "{workload}: the corrupted answer passed the gate");
        assert!(outcome.failed > 0, "{workload}: no failed operation counted");
        let _ = std::fs::remove_dir_all(&opts.work_dir);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package sits in the repo");
    let json =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "BENCHMARK.json lacks {workload}"
        );
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not print"
    );
}
