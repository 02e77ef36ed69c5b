//! The repository's benchmark: two workloads over the marginalized graph
//! kernel stack, each run either untraced (end-to-end metrics) or traced
//! (per-layer metrics from spans the benchmark records around its calls
//! into each layer's public functions).
//!
//! * `gram-molecules` — `GramEngine::compute` jobs over many small
//!   molecules; the XMV kernels, pool dispatch, per-pair assembly and PCG
//!   vector work show here.
//! * `ingest-stream` — a closed loop of `GramClient::submit` groups, each
//!   followed by `flush()`, on a durable scheduler: the flush lane.
//!
//! Every solve runs at f32, set explicitly in `SolverConfig`.

pub mod catalog;
pub mod durable;
pub mod gate;
pub mod gram;
pub mod host;
pub mod ingest;
pub mod inputs;
pub mod report;
pub mod trace;

use std::path::PathBuf;

use mgk::linalg::Precision;
use mgk::solver::{MarginalizedKernelSolver, SolverConfig};
use mgk_bench::{AtomKernel, BondKernel};

use crate::report::{ratio, Outcome};
use crate::trace::Trace;

/// Sizes and rates of the workloads. [`Params::full`] is what the command
/// runs; [`Params::smoke`] is the tiny scale of the self-test.
#[derive(Debug, Clone)]
pub struct Params {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Graph sets the Gram workload cycles through.
    pub job_sets: usize,
    /// Graphs per `gram-molecules` job.
    pub molecule_graphs: usize,
    /// Atom range of the molecules (all molecule workloads).
    pub molecule_atoms: (usize, usize),
    /// Molecules an ingest cycle's scheduler admits during set-up.
    pub ingest_base: usize,
    /// Molecules per ingest group.
    pub ingest_group: usize,
    /// Groups per ingest cycle (one fresh durable scheduler each).
    pub ingest_groups: usize,
    /// Bytes of each triad array.
    pub triad_bytes: usize,
    /// Iterations of the peak-flops loop.
    pub peak_iterations: usize,
}

impl Params {
    /// The scale the benchmark command runs.
    pub fn full() -> Self {
        Params {
            setups: 5,
            job_sets: 4,
            molecule_graphs: 24,
            molecule_atoms: inputs::MOLECULE_ATOMS,
            ingest_base: 32,
            ingest_group: 8,
            ingest_groups: 8,
            triad_bytes: host::TRIAD_ARRAY_BYTES,
            peak_iterations: 4_000_000,
        }
    }

    /// A tiny scale that exercises every path in a second or two.
    pub fn smoke() -> Self {
        Params {
            setups: 2,
            job_sets: 2,
            molecule_graphs: 6,
            molecule_atoms: (4, 24),
            ingest_base: 3,
            ingest_group: 2,
            ingest_groups: 3,
            triad_bytes: 1 << 20,
            peak_iterations: 10_000,
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes and rates.
    pub params: Params,
    /// Where durable schedulers keep their stores and traces are written.
    pub work_dir: PathBuf,
    /// Deliberately corrupt one answer before the correctness gate (the
    /// self-test's check that the gate trips).
    pub corrupt: bool,
}

/// The f32 solver configuration every workload uses; the default would
/// read `MGK_TEST_PRECISION`.
pub fn solver_config() -> SolverConfig {
    SolverConfig { precision: Precision::F32, ..SolverConfig::default() }
}

/// The molecule base kernels every workload uses.
pub fn molecule_kernels() -> (AtomKernel, BondKernel) {
    (AtomKernel::default(), BondKernel::default())
}

/// The molecule solver every workload uses (f32).
pub fn molecule_solver() -> MarginalizedKernelSolver<AtomKernel, BondKernel> {
    let (vertex_kernel, edge_kernel) = molecule_kernels();
    MarginalizedKernelSolver::new(vertex_kernel, edge_kernel, solver_config())
}

/// Run one workload and return its outcome and, for a traced run, the
/// trace.
pub fn run(opts: &Options) -> Result<(Outcome, Option<Trace>), String> {
    let mut trace = if opts.trace { Some(Trace::new()) } else { None };
    let outcome = match opts.workload.as_str() {
        "gram-molecules" => gram::run(opts, trace.as_mut()),
        "ingest-stream" => ingest::run(opts, trace.as_mut()),
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {}",
                catalog::WORKLOADS.join(", ")
            ))
        }
    };
    Ok((outcome, trace))
}

/// Measure the host ceilings into `out`, and the XMV roofline fraction
/// when the run measured XMV.
pub fn host_ceilings(opts: &Options, out: &mut Outcome) {
    let triad = host::triad_gbps(opts.params.triad_bytes, 3);
    let peak = host::peak_gflops(opts.params.peak_iterations, 3);
    out.set("host.triad_gbps", triad);
    out.set("host.peak_gflops", peak);
    out.note("triad_array_bytes", opts.params.triad_bytes as f64);
    if let (Some(&gbps), Some(&gflops)) =
        (out.metrics.get("xmv.gbps"), out.metrics.get("xmv.gflops"))
    {
        // the attainable rate at XMV's arithmetic intensity
        let intensity = ratio(gflops, gbps);
        let attainable = peak.min(intensity * triad);
        out.set("xmv.roofline_fraction", ratio(gflops, attainable));
    }
}

/// The run's record: seed, cores, threads and git revision.
pub fn record(opts: &Options) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"threads\": {}, \"git_revision\": \"{}\"}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        rayon::current_num_threads(),
        git_revision()
    )
}

/// The checkout's git revision, or `unknown` outside a git checkout (the
/// lookup does not climb into enclosing directories).
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
