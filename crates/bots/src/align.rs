//! Align — BOTS `alignment`: pairwise global alignment scores
//! (Needleman–Wunsch dynamic programming) over every pair of protein
//! sequences. The paper's coarsest-grained application (~10⁶-cycle
//! tasks) and a special one structurally: *all* tasks are spawned by the
//! one thread running the `single` construct, which is why NA-RP never
//! finds a second victim and only NA-WS helps (§VI-B1).
//!
//! BOTS ships `prot.100.aa`; we generate synthetic amino-acid sequences
//! of the same character (20-letter alphabet, similar lengths) from a
//! seeded RNG ([`crate::rng`]).

use xgomp_core::TaskCtx;

use crate::rng::{Digest, Rng};

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct AlignParams {
    /// Number of sequences (tasks = n·(n−1)/2 pairs).
    pub n_seqs: usize,
    /// Sequence length.
    pub len: usize,
    /// Generator seed.
    pub seed: u64,
}

/// Generates the synthetic protein set.
pub fn gen_sequences(p: &AlignParams) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(p.seed);
    (0..p.n_seqs)
        .map(|_| (0..p.len).map(|_| (rng.below(20)) as u8).collect())
        .collect()
}

/// Substitution score: identity-strong, mildly varied mismatches
/// (a deterministic stand-in for a PAM/BLOSUM row).
#[inline]
fn sub_score(a: u8, b: u8) -> i64 {
    if a == b {
        3
    } else {
        -(1 + ((a ^ b) & 1) as i64)
    }
}

const GAP: i64 = -2;

/// Needleman–Wunsch global alignment score, two-row DP.
pub fn nw_score(a: &[u8], b: &[u8]) -> i64 {
    let mut prev: Vec<i64> = (0..=b.len() as i64).map(|j| j * GAP).collect();
    let mut curr = vec![0i64; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = (i as i64 + 1) * GAP;
        for (j, &cb) in b.iter().enumerate() {
            let diag = prev[j] + sub_score(ca, cb);
            let up = prev[j + 1] + GAP;
            let left = curr[j] + GAP;
            curr[j + 1] = diag.max(up).max(left);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Sequential all-pairs scoring; returns the digest of all pair scores.
pub fn seq(p: &AlignParams) -> u64 {
    let seqs = gen_sequences(p);
    let mut d = Digest::default();
    for i in 0..seqs.len() {
        for j in (i + 1)..seqs.len() {
            d.absorb(pair_key(i, j, nw_score(&seqs[i], &seqs[j])));
        }
    }
    d.value()
}

/// Task-parallel all-pairs: one flat task per pair, all spawned by the
/// calling worker (the BOTS `single` structure — creation is serialized
/// on one thread by design).
pub fn par(ctx: &TaskCtx<'_>, p: &AlignParams) -> u64 {
    let seqs = gen_sequences(p);
    let n = seqs.len();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let mut keys = vec![0u64; pairs.len()];
    ctx.scope(|s| {
        for (&(i, j), slot) in pairs.iter().zip(keys.iter_mut()) {
            let (a, b) = (&seqs[i], &seqs[j]);
            s.spawn(move |_| {
                *slot = pair_key(i, j, nw_score(a, b));
            });
        }
    });
    let mut d = Digest::default();
    for k in keys {
        d.absorb(k);
    }
    d.value()
}

/// Stable encoding of (pair, score) for digesting.
#[inline]
fn pair_key(i: usize, j: usize, score: i64) -> u64 {
    ((i as u64) << 48) ^ ((j as u64) << 32) ^ (score as u64 & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp_core::{Runtime, RuntimeConfig};

    #[test]
    fn identical_sequences_score_maximally() {
        let a: Vec<u8> = vec![1, 2, 3, 4, 5];
        assert_eq!(nw_score(&a, &a), 15); // 5 matches × 3
    }

    #[test]
    fn gaps_are_penalized() {
        let a: Vec<u8> = vec![1, 2, 3];
        let b: Vec<u8> = vec![1, 2, 3, 4];
        // Best: align 123 with 123, one gap for the trailing 4.
        assert_eq!(nw_score(&a, &b), 9 + GAP);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(nw_score(&[], &[]), 0);
        assert_eq!(nw_score(&[1, 2], &[]), 2 * GAP);
    }

    #[test]
    fn score_is_symmetric() {
        let p = AlignParams {
            n_seqs: 4,
            len: 32,
            seed: 5,
        };
        let seqs = gen_sequences(&p);
        for i in 0..seqs.len() {
            for j in 0..seqs.len() {
                assert_eq!(nw_score(&seqs[i], &seqs[j]), nw_score(&seqs[j], &seqs[i]));
            }
        }
    }

    #[test]
    fn par_matches_seq() {
        let p = AlignParams {
            n_seqs: 8,
            len: 48,
            seed: 42,
        };
        let expect = seq(&p);
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| par(ctx, &p));
        assert_eq!(out.result, expect);
        assert_eq!(out.stats.total().tasks_created, 28); // C(8,2)
    }
}
