//! `gram-molecules`: the batch Gram engine.
//!
//! The untraced run computes Gram jobs with `GramEngine::compute` for the
//! given number of seconds, in whole passes over a few seeded graph sets of
//! the same stratified sizes. Each pass is one window of equal work, and
//! the run reports its rate, CPU and median job latency at the slow end of
//! its windows ([`crate::report::SLOW_END_SHARE`]). The traced run times
//! each job's `compute` as one span, then replays the same pairs serially
//! through the same public steps — `prepare`, `ProductSystem::assemble`,
//! PCG over a timed `SystemOperator` — so each layer's self time is
//! measured from outside and the residual is what the replay could not
//! attribute.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use mgk::datasets::MoleculeGraph;
use mgk::graph::BondLabel;
use mgk::linalg::{
    pcg_counted_warm_multi, DiagonalOperator, LinearOperator, Scalar, TrafficCounters,
};
use mgk::reorder::ReorderMethod;
use mgk::solver::{
    GramConfig, GramEngine, GramResult, ProductSystem, SolverConfig, SystemOperator,
};
use mgk::tile::OctileMatrix;
use mgk_bench::{AtomKernel, BondKernel};

use crate::report::{
    median, process_cpu_s, quantile, ratio, slow_end_cost, slow_end_rate, Outcome,
};
use crate::trace::{Trace, ROOT};
use crate::{
    gate, host_ceilings, inputs, molecule_kernels, molecule_solver, solver_config, Options,
};

type Engine = GramEngine<AtomKernel, BondKernel>;

/// Fixed `(i, j)` entries of set 0 checked against `kernel_at::<f64>`.
fn samples(n: usize) -> [(usize, usize); 4] {
    [(0, 1), (1, 2), (0, n - 1), (2, n - 2)]
}

/// The per-pair operator of a replayed solve, timing every application.
struct TimedOperator<'a, A> {
    inner: &'a A,
    applies: RefCell<Vec<(Instant, Instant)>>,
    bytes: Cell<u64>,
    flops: Cell<u64>,
}

impl<'a, A: LinearOperator<f32>> TimedOperator<'a, A> {
    fn new(inner: &'a A) -> Self {
        TimedOperator {
            inner,
            applies: RefCell::new(Vec::new()),
            bytes: Cell::new(0),
            flops: Cell::new(0),
        }
    }
}

impl<A: LinearOperator<f32>> LinearOperator<f32> for TimedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f32], y: &mut [f32]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[f32], y: &mut [f32], counters: &mut TrafficCounters) {
        let mut own = TrafficCounters::new();
        let start = Instant::now();
        self.inner.apply_counted(x, y, &mut own);
        let end = Instant::now();
        self.applies.borrow_mut().push((start, end));
        self.bytes.set(self.bytes.get() + own.global_bytes());
        self.flops.set(self.flops.get() + own.flops);
        counters.accumulate(&own);
    }
}

/// Layer totals of the traced runs, summed over jobs.
#[derive(Default)]
struct Layers {
    sweep: Duration,
    sweep_cpu_s: f64,
    /// Sweep time of the jobs that were also replayed.
    replayed_sweep: Duration,
    preprocess: Duration,
    jobs: usize,
    replay: Duration,
    graphs: usize,
    prepare: Duration,
    tiles_nonempty: usize,
    tiles_nnz: usize,
    pairs: usize,
    pair_total: Duration,
    assemble: Duration,
    pcg: Duration,
    xmv: Duration,
    applies: usize,
    xmv_bytes: u64,
    xmv_flops: u64,
    iterations: usize,
}

fn pair_list(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect()
}

/// Build inputs and engine and run one warm-up job over set 0 (spawns the
/// pool and warms the allocator and caches, so the first timed job does not
/// pay for them); median of `opts.params.setups`.
fn setup(opts: &Options, out: &mut Outcome) -> (Vec<Vec<MoleculeGraph>>, Engine) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..opts.params.setups.max(1) {
        let start = Instant::now();
        let p = &opts.params;
        let sets: Vec<Vec<MoleculeGraph>> = (0..p.job_sets as u64)
            .map(|s| inputs::molecules(p.molecule_graphs, p.molecule_atoms, opts.seed, s))
            .collect();
        let engine = GramEngine::new(molecule_solver(), GramConfig::default());
        let warm = engine.compute(&sets[0]);
        times.push(start.elapsed().as_secs_f64());
        out.fail(warm.failures as u64, "warm-up job failed".to_string());
        built = Some((sets, engine));
    }
    out.set("setup_s", median(&times));
    built.expect("at least one set-up ran")
}

/// Run the workload: untraced, the end-to-end metrics; traced, the
/// per-layer metrics from the sweep plus the serial replay.
pub fn run(opts: &Options, trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let (sets, engine) = setup(opts, &mut out);
    match trace {
        None => measure(opts, &sets, &engine, &mut out),
        Some(trace) => measure_layers(opts, &sets, &engine, trace, &mut out),
    }
    out
}

fn measure(opts: &Options, sets: &[Vec<MoleculeGraph>], engine: &Engine, out: &mut Outcome) {
    let mut latencies_ms = Vec::new();
    // one window per pass over the sets: equal work in every window
    let (mut rates, mut cpu_per_pair_ms, mut window_p50_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_s, mut window_pairs, mut window_ms) = (0.0, 0u64, Vec::new());
    let mut pairs_total = 0u64;
    let mut first_of_set0: Option<GramResult> = None;
    let mut cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut job = 0usize;
    while job == 0
        || !job.is_multiple_of(sets.len())
        || start.elapsed().as_secs_f64() < opts.seconds
    {
        let set = &sets[job % sets.len()];
        let t = Instant::now();
        let mut result = engine.compute(set);
        let secs = t.elapsed().as_secs_f64();
        let pairs = (set.len() * (set.len() + 1) / 2) as u64;
        latencies_ms.push(secs * 1e3);
        window_ms.push(secs * 1e3);
        window_s += secs;
        window_pairs += pairs;
        pairs_total += pairs;
        if job == 0 && opts.corrupt {
            // a deliberately wrong answer the gate must catch
            let (i, j) = samples(set.len())[0];
            let n = result.num_graphs;
            result.matrix[i * n + j] *= 1.01;
        }
        gate::gram_structure(&result, out);
        if job == 0 {
            first_of_set0 = Some(result);
        }
        job += 1;
        if job.is_multiple_of(sets.len()) {
            let cpu1 = process_cpu_s();
            rates.push(window_pairs as f64 / window_s);
            cpu_per_pair_ms.push((cpu1 - cpu0) * 1e3 / window_pairs as f64);
            window_p50_ms.push(median(&window_ms));
            (cpu0, window_s, window_pairs) = (cpu1, 0.0, 0);
            window_ms.clear();
        }
    }
    out.attempted += pairs_total;
    out.set("pairs_per_s", slow_end_rate(&rates));
    out.set("cpu_ms_per_pair", slow_end_cost(&cpu_per_pair_ms));
    out.set("p50_ms", slow_end_cost(&window_p50_ms));
    // the slowest jobs: already the slow end
    out.set("p99_ms", quantile(&latencies_ms, 0.99));
    out.note("jobs", job as f64);
    out.note("windows", rates.len() as f64);
    out.note("pairs", pairs_total as f64);

    let first = first_of_set0.expect("at least one job ran");
    check_samples(&sets[0], &first, out);
}

/// The fixed sample of set 0's entries against `kernel_at::<f64>`,
/// normalized the engine's way.
fn check_samples(set: &[MoleculeGraph], result: &GramResult, out: &mut Outcome) {
    let reference = molecule_solver();
    let raw = |i: usize, j: usize| -> Option<f64> {
        reference.kernel_at::<f64, _, _>(&set[i], &set[j]).ok().map(|r| r.value)
    };
    for (i, j) in samples(set.len()) {
        let expected = match (raw(i, j), raw(i, i), raw(j, j)) {
            (Some(kij), Some(kii), Some(kjj)) => kij / (kii * kjj).sqrt(),
            _ => f64::NAN,
        };
        gate::close(result.get(i, j) as f64, expected, &format!("gram entry ({i},{j})"), out);
    }
}

fn measure_layers(
    opts: &Options,
    sets: &[Vec<MoleculeGraph>],
    engine: &Engine,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut job = 0usize;
    while job == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let set = &sets[job % sets.len()];
        let job_span = trace.begin("gram.job", ROOT);
        let cpu0 = process_cpu_s();
        let sweep_span = trace.begin("gram.compute", job_span);
        let t = Instant::now();
        let result = engine.compute(set);
        let sweep = t.elapsed();
        layers.sweep += sweep;
        trace.end(sweep_span);
        layers.sweep_cpu_s += process_cpu_s() - cpu0;
        layers.preprocess += result.preprocessing;
        layers.jobs += 1;
        out.attempted += (set.len() * (set.len() + 1) / 2) as u64;
        gate::gram_structure(&result, out);
        // each set is replayed once; later jobs only sweep, which keeps
        // the trace to a few megabytes
        if job < sets.len() {
            layers.replayed_sweep += sweep;
            replay(set, &result, trace, job_span, &mut layers, out);
        }
        trace.end(job_span);
        job += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    out.note("jobs", job as f64);
    report_layers(&layers, out);
    out.set("pool.claim_ns", crate::host::pool_claim_ns(4096, 31));
    host_ceilings(opts, out);
    out.set("trace.overhead_share", trace.overhead_share(wall));
}

/// Serially replay one job's pairs through the public layer steps,
/// timing each, and check the replay reproduces the engine's entries
/// bit for bit.
fn replay(
    set: &[MoleculeGraph],
    result: &GramResult,
    trace: &mut Trace,
    parent: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let solver = molecule_solver();
    // the engine's per-pair configuration after its one-off reordering
    let pair_config = SolverConfig {
        reorder: ReorderMethod::Natural,
        stopping_probability: None,
        ..solver_config()
    };
    let (vertex_kernel, edge_kernel) = molecule_kernels();
    let replay_start = Instant::now();
    let replay_span = trace.begin("gram.replay", parent);
    let mut prepared = Vec::with_capacity(set.len());
    for g in set {
        let t = Instant::now();
        let p = solver.prepare(g).unwrap_or_else(|| g.clone());
        let end = Instant::now();
        trace.record("reorder.prepare", replay_span, t, end);
        layers.prepare += end - t;
        prepared.push(p);
    }
    let n = set.len();
    let mut raw = vec![f32::NAN; n * n];
    for (i, j) in pair_list(n) {
        let pair_start = Instant::now();
        let pair_span = trace.begin("gram.pair", replay_span);
        let t = Instant::now();
        let system = ProductSystem::assemble(
            &prepared[i],
            &prepared[j],
            &vertex_kernel,
            edge_kernel,
            &pair_config,
        );
        let end = Instant::now();
        trace.record("product.assemble", pair_span, t, end);
        layers.assemble += end - t;

        let rhs = system.rhs::<f32>();
        let operator = SystemOperator::<BondLabel, BondKernel, f32>::new(&system);
        let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<f32>());
        let timed = TimedOperator::new(&operator);
        let mut traffic = TrafficCounters::new();
        let t = Instant::now();
        let (x, info) = pcg_counted_warm_multi(
            &timed,
            &preconditioner,
            &rhs,
            &[],
            &pair_config.solve,
            &mut traffic,
        );
        let end = Instant::now();
        let pcg_span = trace.record("pcg.solve", pair_span, t, end);
        layers.pcg += end - t;
        for &(a, b) in timed.applies.borrow().iter() {
            trace.record("xmv.apply", pcg_span, a, b);
            layers.xmv += b - a;
            layers.applies += 1;
        }
        layers.xmv_bytes += timed.bytes.get();
        layers.xmv_flops += timed.flops.get();
        layers.iterations += info.iterations;

        let value: f64 =
            system.start_product().iter().zip(&x).map(|(&p, &xi)| p as f64 * xi.to_f64()).sum();
        trace.end(pair_span);
        layers.pair_total += pair_start.elapsed();
        layers.pairs += 1;
        if !info.converged {
            out.fail(1, format!("replayed pair ({i},{j}) did not converge"));
        }
        raw[i * n + j] = f32::from_f64(value);
        raw[j * n + i] = raw[i * n + j];
    }
    trace.end(replay_span);
    layers.replay += replay_start.elapsed();
    layers.graphs += n;
    out.attempted += (n * (n + 1) / 2) as u64;

    // the engine's normalization, applied to the replayed raw values
    let diag: Vec<f64> = (0..n).map(|i| raw[i * n + i] as f64).collect();
    let mut mismatches = 0u64;
    for i in 0..n {
        for j in 0..n {
            let d = (diag[i] * diag[j]).sqrt();
            let replayed =
                if d > 0.0 { f32::from_f64(raw[i * n + j] as f64 / d) } else { raw[i * n + j] };
            if replayed.to_bits() != result.get(i, j).to_bits() {
                mismatches += 1;
            }
        }
    }
    out.fail(mismatches, format!("{mismatches} replayed entries differ from the engine's"));

    // exact tile counts of the prepared graphs, outside the timed replay
    for p in &prepared {
        let tiles = OctileMatrix::from_graph(p);
        layers.tiles_nonempty += tiles.num_tiles();
        layers.tiles_nnz += tiles.num_nonzeros();
    }
}

fn report_layers(l: &Layers, out: &mut Outcome) {
    let secs = |d: Duration| d.as_secs_f64();
    let pairs = l.pairs as f64;
    let applies = l.applies as f64;
    let pcg_self = secs(l.pcg) - secs(l.xmv);
    let attributed = secs(l.prepare) + secs(l.assemble) + secs(l.pcg);
    out.set("pool.busy_cores", ratio(l.sweep_cpu_s, secs(l.sweep)));
    out.set(
        "pool.efficiency",
        ratio(secs(l.replay), secs(l.replayed_sweep) * rayon::current_num_threads() as f64),
    );
    out.set("reorder.ms_per_graph", ratio(secs(l.prepare) * 1e3, l.graphs as f64));
    out.set("tile.nonempty_per_graph", ratio(l.tiles_nonempty as f64, l.graphs as f64));
    out.set("tile.fill", ratio(l.tiles_nnz as f64, 64.0 * l.tiles_nonempty as f64));
    out.set("product.assemble_us_per_pair", ratio(secs(l.assemble) * 1e6, pairs));
    out.set("xmv.us_per_apply", ratio(secs(l.xmv) * 1e6, applies));
    out.set("xmv.applies_per_pair", ratio(applies, pairs));
    out.set("xmv.bytes_per_apply", ratio(l.xmv_bytes as f64, applies));
    out.set("xmv.flops_per_apply", ratio(l.xmv_flops as f64, applies));
    out.set("xmv.gbps", ratio(l.xmv_bytes as f64, secs(l.xmv)) * 1e-9);
    out.set("xmv.gflops", ratio(l.xmv_flops as f64, secs(l.xmv)) * 1e-9);
    out.set("xmv.share", ratio(secs(l.xmv), secs(l.pair_total)));
    out.set("pcg.iterations_per_pair", ratio(l.iterations as f64, pairs));
    out.set("pcg.vector_us_per_pair", ratio(pcg_self * 1e6, pairs));
    out.set("gram.preprocess_ms", ratio(secs(l.preprocess) * 1e3, l.jobs as f64));
    out.set("gram.unattributed_share", ratio(secs(l.replay) - attributed, secs(l.replay)));
    out.note("replay_pairs", pairs);
    out.note("replay_s", secs(l.replay));
    out.note("sweep_s", secs(l.sweep));
}
