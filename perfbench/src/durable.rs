//! A durable molecule scheduler in a fresh store directory, and the
//! service counters the ingest workload reads around its windows.

use std::path::PathBuf;

use mgk::datasets::MoleculeGraph;
use mgk::graph::{AtomLabel, BondLabel};
use mgk::runtime::metrics::names;
use mgk::runtime::{
    DurabilityConfig, GramScheduler, GramService, GramServiceConfig, SchedulerConfig,
};
use mgk::telemetry::{HistogramSnapshot, TelemetrySnapshot};
use mgk_bench::{AtomKernel, BondKernel};

use crate::report::Outcome;
use crate::{molecule_solver, Options};

/// The molecule scheduler the ingest workload drives.
pub type MoleculeScheduler = GramScheduler<AtomKernel, BondKernel, AtomLabel, BondLabel>;

/// A scheduler with a store in its own fresh directory (default fsync
/// policy), removed again by [`Durable::shutdown`].
pub struct Durable {
    /// The running scheduler.
    pub scheduler: MoleculeScheduler,
    dir: PathBuf,
}

impl Durable {
    /// Spawn a durable scheduler over an empty store at
    /// `<work_dir>/<tag>-<pid>`.
    pub fn spawn(opts: &Options, tag: &str) -> Result<Self, String> {
        let dir = opts.work_dir.join(format!("{tag}-{}", std::process::id()));
        // a store left by an interrupted run would be recovered, not fresh
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let service = GramService::new(molecule_solver(), GramServiceConfig::default());
        let (scheduler, _) = GramScheduler::spawn_durable(
            service,
            SchedulerConfig::default(),
            DurabilityConfig::new(&dir),
        )
        .map_err(|e| format!("opening the store at {}: {e}", dir.display()))?;
        Ok(Durable { scheduler, dir })
    }

    /// Join the scheduler (draining it and writing its final snapshot) and
    /// delete the store.
    pub fn shutdown(self) {
        drop(self.scheduler.join());
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// The service counters now.
    pub fn counters(&self) -> Counters {
        Counters::of(&self.scheduler.telemetry().snapshot())
    }
}

/// The service counters a window is measured by (differences of two
/// reads).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub jobs_executed: u64,
    pub warm_started: u64,
    pub total_iterations: u64,
    pub failures: u64,
    pub store_appends: u64,
    pub store_bytes: u64,
    pub store_fsyncs: u64,
    pub persist: HistogramSnapshot,
}

impl Counters {
    fn of(snap: &TelemetrySnapshot) -> Self {
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        Counters {
            jobs_executed: c(names::JOBS_EXECUTED),
            warm_started: c(names::WARM_STARTED),
            total_iterations: c(names::TOTAL_ITERATIONS),
            failures: c(names::FAILURES),
            store_appends: c(names::STORE_APPENDS),
            store_bytes: c(names::STORE_BYTES),
            store_fsyncs: c(names::STORE_FSYNCS),
            persist: snap
                .histogram(names::STAGE_DURATION, Some(("stage", "persist")))
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            jobs_executed: self.jobs_executed - earlier.jobs_executed,
            warm_started: self.warm_started - earlier.warm_started,
            total_iterations: self.total_iterations - earlier.total_iterations,
            failures: self.failures - earlier.failures,
            store_appends: self.store_appends - earlier.store_appends,
            store_bytes: self.store_bytes - earlier.store_bytes,
            store_fsyncs: self.store_fsyncs - earlier.store_fsyncs,
            persist: self.persist.delta(&earlier.persist),
        }
    }

    /// Sum of two windows.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut persist = self.persist.clone();
        for (b, (count, sum)) in other.persist.counts.iter().zip(&other.persist.sums).enumerate() {
            persist.counts[b] += count;
            persist.sums[b] += sum;
        }
        Counters {
            jobs_executed: self.jobs_executed + other.jobs_executed,
            warm_started: self.warm_started + other.warm_started,
            total_iterations: self.total_iterations + other.total_iterations,
            failures: self.failures + other.failures,
            store_appends: self.store_appends + other.store_appends,
            store_bytes: self.store_bytes + other.store_bytes,
            store_fsyncs: self.store_fsyncs + other.store_fsyncs,
            persist,
        }
    }
}

/// The store-layer metrics of a window in which `pairs` pairs were solved
/// over `seconds`.
pub fn store_metrics(window: &Counters, pairs: u64, seconds: f64, out: &mut Outcome) {
    let per_pair = |v: u64| crate::report::ratio(v as f64, pairs as f64);
    out.set("store.appends_per_pair", per_pair(window.store_appends));
    out.set("store.bytes_per_pair", per_pair(window.store_bytes));
    out.set("store.fsyncs_per_s", crate::report::ratio(window.store_fsyncs as f64, seconds));
    out.set(
        "store.persist_ms.p50",
        window.persist.quantile(0.5).map(|ns| ns as f64 * 1e-6).unwrap_or(0.0),
    );
}

/// The sample entries of a normalized snapshot of `structures` (in
/// admission order) against `kernel_at::<f64>`, normalized the same way.
pub fn check_snapshot_samples(
    matrix: &[f32],
    structures: &[MoleculeGraph],
    samples: &[(usize, usize)],
    out: &mut Outcome,
) {
    let n = structures.len();
    let solver = molecule_solver();
    let raw = |i: usize, j: usize| {
        solver
            .kernel_at::<f64, _, _>(&structures[i], &structures[j])
            .map(|r| r.value)
            .unwrap_or(f64::NAN)
    };
    for &(i, j) in samples {
        let expected = raw(i, j) / (raw(i, i) * raw(j, j)).sqrt();
        crate::gate::close(
            matrix[i * n + j] as f64,
            expected,
            &format!("snapshot entry ({i},{j})"),
            out,
        );
    }
}
