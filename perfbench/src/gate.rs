//! The correctness gate. Every check that fails counts as failed
//! operations in the run's result, with a finding saying why.

use mgk::solver::GramResult;

use crate::report::Outcome;

/// Largest relative error a computed value may have against the
/// `kernel_at::<f64>` reference.
pub const REFERENCE_TOLERANCE: f64 = 1e-4;

/// Largest distance of a normalized diagonal entry from 1.
pub const DIAGONAL_TOLERANCE: f64 = 1e-6;

/// Check a normalized matrix (row-major `n × n`): every entry finite,
/// exactly symmetric, unit diagonal; each bad entry is a failed operation.
pub fn normalized_matrix(matrix: &[f32], n: usize, label: &str, out: &mut Outcome) {
    let mut bad = 0u64;
    for i in 0..n {
        for j in 0..n {
            let v = matrix[i * n + j];
            let wrong = !v.is_finite()
                || v.to_bits() != matrix[j * n + i].to_bits()
                || (i == j && (v as f64 - 1.0).abs() > DIAGONAL_TOLERANCE);
            if wrong {
                bad += 1;
            }
        }
    }
    out.fail(
        bad,
        format!("{label}: {bad} entries non-finite, asymmetric or off the unit diagonal"),
    );
}

/// The gate on one Gram job: no failed pair, and a well-formed matrix.
pub fn gram_structure(result: &GramResult, out: &mut Outcome) {
    out.fail(result.failures as u64, format!("{} Gram pairs failed", result.failures));
    normalized_matrix(&result.matrix, result.num_graphs, "Gram matrix", out);
}

/// `actual` within [`REFERENCE_TOLERANCE`] (relative) of `expected`.
pub fn close(actual: f64, expected: f64, label: &str, out: &mut Outcome) {
    let err = (actual - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
    if err.is_nan() || err > REFERENCE_TOLERANCE {
        out.fail(1, format!("{label}: {actual} vs reference {expected} (relative error {err:e})"));
    }
}
