//! Every metric the benchmark prints: its unit, which direction is better,
//! the layer it measures and the end-to-end figure it should move.
//!
//! `BENCHMARK.json` lists the same names and units; the smoke test holds
//! the two in step.

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The layer (crate and module) the metric observes.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change in this metric should
    /// move (end-to-end metrics: the workloads that report them).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, layer, moves }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`) of every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "pairs_per_s",
        "1/s",
        "higher",
        "end-to-end",
        "slow end (5th percentile) over windows of pairs solved / window wall; windows: \
         gram-molecules a pass over the graph sets, ingest-stream a group (submits and flush)",
    ),
    m(
        "cpu_ms_per_pair",
        "ms",
        "lower",
        "end-to-end",
        "slow end (95th percentile) over windows of process user+sys CPU / pairs solved; \
         windows as pairs_per_s",
    ),
    m(
        "p50_ms",
        "ms",
        "lower",
        "end-to-end",
        "slow end (95th percentile) over windows of the window's median latency: \
         gram-molecules one GramEngine::compute job, per pass; ingest-stream submit of a group \
         to its flush returning, per cycle",
    ),
    m(
        "p99_ms",
        "ms",
        "lower",
        "end-to-end",
        "as p50_ms, 99th percentile over all jobs (gram-molecules) or groups (ingest-stream) \
         of the run: the slowest few, already the slow end",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "end-to-end",
        "all: median over several set-ups in one run (inputs, engine or durable scheduler, \
         warm-up)",
    ),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A workload
/// whose path does not cross a layer prints 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    m("pool.busy_cores", "cores", "higher", "rayon shim Pool", "gram-molecules/pairs_per_s"),
    m("pool.claim_ns", "ns", "lower", "rayon shim Pool", "gram-molecules/pairs_per_s"),
    m("pool.efficiency", "ratio", "higher", "rayon shim Pool", "gram-molecules/pairs_per_s"),
    m("reorder.ms_per_graph", "ms", "lower", "mgk-reorder (PBR)", "gram-molecules/pairs_per_s"),
    m("tile.nonempty_per_graph", "count", "lower", "mgk-tile", "gram-molecules/pairs_per_s"),
    m("tile.fill", "ratio", "higher", "mgk-tile", "gram-molecules/pairs_per_s"),
    m(
        "product.assemble_us_per_pair",
        "us",
        "lower",
        "mgk-core::product",
        "gram-molecules/pairs_per_s",
    ),
    m("xmv.us_per_apply", "us", "lower", "mgk-core::product XMV", "gram-molecules/pairs_per_s"),
    m(
        "xmv.applies_per_pair",
        "count",
        "lower",
        "mgk-core::product XMV",
        "gram-molecules/pairs_per_s",
    ),
    m("xmv.bytes_per_apply", "B", "lower", "mgk-core::product XMV", "gram-molecules/pairs_per_s"),
    m(
        "xmv.flops_per_apply",
        "flop",
        "lower",
        "mgk-core::product XMV",
        "gram-molecules/pairs_per_s",
    ),
    m("xmv.gbps", "GB/s", "higher", "mgk-core::product XMV", "gram-molecules/pairs_per_s"),
    m("xmv.gflops", "GFLOP/s", "higher", "mgk-core::product XMV", "gram-molecules/pairs_per_s"),
    m(
        "xmv.roofline_fraction",
        "ratio",
        "higher",
        "mgk-core::product XMV",
        "gram-molecules/pairs_per_s",
    ),
    m("xmv.share", "ratio", "lower", "mgk-core::product XMV", "gram-molecules/pairs_per_s"),
    m(
        "pcg.iterations_per_pair",
        "count",
        "lower",
        "mgk-linalg PCG",
        "gram-molecules/pairs_per_s, ingest-stream/pairs_per_s",
    ),
    m("pcg.vector_us_per_pair", "us", "lower", "mgk-linalg PCG", "gram-molecules/pairs_per_s"),
    m("donor.warm_share", "ratio", "higher", "mgk-runtime donor pool", "ingest-stream/pairs_per_s"),
    m("gram.preprocess_ms", "ms", "lower", "mgk-core::gram", "gram-molecules/pairs_per_s"),
    m("gram.unattributed_share", "ratio", "lower", "mgk-core::gram", "none (replay residual)"),
    m("flush.p50_ms", "ms", "lower", "mgk-runtime flush lane", "ingest-stream/p50_ms"),
    m("store.appends_per_pair", "count", "lower", "mgk-store WAL", "ingest-stream/pairs_per_s"),
    m("store.bytes_per_pair", "B", "lower", "mgk-store WAL", "ingest-stream/pairs_per_s"),
    m("store.fsyncs_per_s", "1/s", "lower", "mgk-store WAL", "ingest-stream/pairs_per_s"),
    m("store.persist_ms.p50", "ms", "lower", "mgk-store WAL", "ingest-stream/pairs_per_s"),
    m("host.triad_gbps", "GB/s", "higher", "host", "none (roofline ceiling, host drift)"),
    m("host.peak_gflops", "GFLOP/s", "higher", "host", "none (roofline ceiling, host drift)"),
    m("trace.overhead_share", "ratio", "lower", "benchmark tracer", "none (tracing cost)"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["gram-molecules", "ingest-stream"];
