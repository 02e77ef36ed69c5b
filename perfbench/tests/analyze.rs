//! The benchmark's code stays clean under the workspace's own static
//! analysis in strict mode, scanned together with the workspace so the
//! shim-parity lint sees the shims it resolves against.

use std::path::Path;

#[test]
fn benchmark_code_is_clean_under_strict_analysis() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package sits in the repo");
    let mut cfg = mgk_analyze::Config::for_root(root);
    cfg.strict = true;
    cfg.scan_dirs.push("perfbench".to_string());
    let report = mgk_analyze::run(&cfg).expect("the analysis runs");
    let findings: Vec<String> = report.active().map(|d| d.render()).collect();
    assert!(findings.is_empty(), "mgk-analyze --strict findings:\n{}", findings.join("\n"));
    assert!(
        report.files_scanned > 100,
        "the scan must cover the workspace and the benchmark, saw {} files",
        report.files_scanned
    );
}
