//! Seeded workload inputs.
//!
//! Sizes are stratified: a set of `count` molecules takes, smallest first,
//! the sizes at the midpoints of `count` equal-probability strata of the
//! log-uniform size law `drugbank_like` draws from, and the seed decides
//! each molecule's structure. Every seed therefore asks for the same amount
//! of work in the same pair order, and the spread between seeds measures
//! the program rather than the luck of the size draw. Smallest first puts a
//! job's largest pairs last, so skewed-size scheduling in the pool shows.

use mgk::datasets::molecules::synthetic_molecule;
use mgk::datasets::MoleculeGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Atom-count range of the molecule set (`drugbank_like(_, 4, 160, _)`).
pub const MOLECULE_ATOMS: (usize, usize) = (4, 160);

/// The workload's random stream for one purpose: distinct purposes of one
/// seed draw from independent streams.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// Sizes at the midpoints of `count` equal-probability strata of the
/// log-uniform distribution `drugbank_like` draws from.
pub fn log_uniform_sizes(count: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    (0..count)
        .map(|k| {
            let q = (k as f64 + 0.5) / count as f64;
            ((a + q * (b - a)).exp().floor() as usize).clamp(lo, hi)
        })
        .collect()
}

/// `count` molecules with stratified sizes, smallest first.
pub fn molecules(
    count: usize,
    atoms: (usize, usize),
    seed: u64,
    stream: u64,
) -> Vec<MoleculeGraph> {
    let mut rng = rng(seed, stream);
    log_uniform_sizes(count, atoms).into_iter().map(|n| synthetic_molecule(n, &mut rng)).collect()
}
