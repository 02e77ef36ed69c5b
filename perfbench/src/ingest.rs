//! `ingest-stream`: a closed loop of `GramClient::submit` in small groups,
//! each followed by `flush()`, on a durable scheduler — the flush lane with
//! its parallel prepare, in-batch donors, WAL appends and epoch snapshots.
//!
//! A cycle spawns a fresh durable scheduler and admits a base corpus
//! (timed as set-up), streams a fixed number of groups into it (the timed
//! window) and shuts it down, so every cycle does the same work; cycles
//! repeat until the run's seconds are used. Groups are large enough that
//! a flush spans several solve batches, so later batches warm-start from
//! donors the earlier ones folded. The run reports its rate and CPU per
//! group and its median group latency per cycle (a cycle's groups do the
//! same work in every cycle) at the slow end of those windows
//! ([`crate::report::SLOW_END_SHARE`]). Iteration and warm-start counts differ
//! slightly between runs because in-batch donors depend on timing; they
//! are reported, not asserted.

use std::time::Instant;

use mgk::datasets::MoleculeGraph;

use crate::durable::{check_snapshot_samples, store_metrics, Counters, Durable};
use crate::report::{
    median, process_cpu_s, quantile, ratio, slow_end_cost, slow_end_rate, Outcome,
};
use crate::trace::{Trace, ROOT};
use crate::{gate, host_ceilings, inputs, Options};

/// Run the workload.
pub fn run(opts: &Options, mut trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let p = &opts.params;
    let mut setup_s = Vec::new();
    let mut group_ms = Vec::new();
    let mut flush_ms = Vec::new();
    // rate and CPU per group, median group latency per cycle (the same
    // work in every cycle)
    let (mut rates, mut cpu_per_pair_ms, mut cycle_p50_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut window = Counters::default();
    let (mut window_s, mut cpu_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle < p.setups as u64 || start.elapsed().as_secs_f64() < opts.seconds {
        let stream = |g: u64| 10_000 * cycle + g;
        let groups: Vec<Vec<MoleculeGraph>> = (1..=p.ingest_groups as u64)
            .map(|g| inputs::molecules(p.ingest_group, p.molecule_atoms, opts.seed, stream(g)))
            .collect();
        let t = Instant::now();
        let base = inputs::molecules(p.ingest_base, p.molecule_atoms, opts.seed, stream(0));
        let durable = match Durable::spawn(opts, "ingest") {
            Ok(d) => d,
            Err(e) => {
                out.fail(1, e);
                return out;
            }
        };
        let client = durable.scheduler.client();
        if let Err(e) = client.submit_all(base.clone()).and_then(|_| client.flush()) {
            out.fail(1, format!("admitting the base corpus: {e}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let before = durable.counters();
        let cpu0 = process_cpu_s();
        let window_start = Instant::now();
        let first_group = group_ms.len();
        for group in &groups {
            let (group_before, group_cpu0) = (durable.counters(), process_cpu_s());
            let group_start = Instant::now();
            let span = trace.as_deref_mut().map(|tr| tr.begin("ingest.group", ROOT));
            for g in group {
                let t = Instant::now();
                if let Err(e) = client.submit(g.clone()) {
                    out.fail(1, format!("submit: {e}"));
                }
                if let (Some(tr), Some(span)) = (trace.as_deref_mut(), span) {
                    tr.record("client.submit", span, t, Instant::now());
                }
            }
            let t = Instant::now();
            if let Err(e) = client.flush() {
                out.fail(1, format!("flush: {e}"));
            }
            let end = Instant::now();
            flush_ms.push((end - t).as_secs_f64() * 1e3);
            group_ms.push((end - group_start).as_secs_f64() * 1e3);
            let group_pairs = durable.counters().since(&group_before).jobs_executed as f64;
            rates.push(ratio(group_pairs, (end - group_start).as_secs_f64()));
            cpu_per_pair_ms.push(ratio((process_cpu_s() - group_cpu0) * 1e3, group_pairs));
            if let (Some(tr), Some(span)) = (trace.as_deref_mut(), span) {
                tr.record("client.flush", span, t, end);
                tr.end(span);
            }
        }
        window_s += window_start.elapsed().as_secs_f64();
        cpu_s += process_cpu_s() - cpu0;
        let cycle_counters = durable.counters().since(&before);
        cycle_p50_ms.push(median(&group_ms[first_group..]));

        let admitted: Vec<MoleculeGraph> =
            base.into_iter().chain(groups.into_iter().flatten()).collect();
        match durable.scheduler.watch().latest() {
            Some(latest) => {
                let mut snapshot = latest.snapshot.matrix.clone();
                if opts.corrupt && cycle == 0 {
                    // a deliberately wrong answer the gate must catch
                    snapshot[1] *= 1.01;
                }
                let n = latest.snapshot.num_graphs;
                if n != admitted.len() {
                    out.fail(
                        1,
                        format!("snapshot holds {n} structures, {} were admitted", admitted.len()),
                    );
                } else {
                    gate::normalized_matrix(&snapshot, n, "ingest snapshot", &mut out);
                    if cycle == 0 {
                        check_snapshot_samples(
                            &snapshot,
                            &admitted,
                            &[(0, 1), (n - 1, 0)],
                            &mut out,
                        );
                    }
                }
            }
            None => out.fail(1, "no snapshot was published".to_string()),
        }
        out.fail(
            cycle_counters.failures,
            format!("{} flush-lane solves failed", cycle_counters.failures),
        );
        out.attempted += cycle_counters.jobs_executed;
        window = window.plus(&cycle_counters);
        Durable::shutdown(durable);
        cycle += 1;
    }
    out.note("cycles", cycle as f64);
    out.note("groups", group_ms.len() as f64);
    out.note("pairs", window.jobs_executed as f64);
    out.note("pcg_iterations", window.total_iterations as f64);
    out.note("warm_starts", window.warm_started as f64);

    let pairs = window.jobs_executed as f64;
    match trace {
        None => {
            out.set("setup_s", median(&setup_s));
            out.set("pairs_per_s", slow_end_rate(&rates));
            out.set("cpu_ms_per_pair", slow_end_cost(&cpu_per_pair_ms));
            out.set("p50_ms", slow_end_cost(&cycle_p50_ms));
            // the slowest groups: already the slow end
            out.set("p99_ms", quantile(&group_ms, 0.99));
        }
        Some(trace) => {
            out.set("flush.p50_ms", median(&flush_ms));
            out.set("donor.warm_share", ratio(window.warm_started as f64, pairs));
            out.set("pcg.iterations_per_pair", ratio(window.total_iterations as f64, pairs));
            out.set("pool.busy_cores", ratio(cpu_s, window_s));
            store_metrics(&window, window.jobs_executed, window_s, &mut out);
            host_ceilings(opts, &mut out);
            out.set("trace.overhead_share", trace.overhead_share(window_s));
        }
    }
    out
}
