//! Pipeline-stage routing via bitmask dynamic programming (Appendix B).
//!
//! Given `n` candidate pipeline stages and the pairwise link bandwidth
//! between them, order the stages so that the *bottleneck* (minimum) link
//! bandwidth along the resulting chain is maximized — the dynamic program
//! the paper uses to "identify the path minimizing the cross-stage
//! communication cost". `dp[mask * n + last]` holds the best achievable
//! bottleneck over orderings of `mask` ending at `last`.

use ts_common::{Error, Result};

/// Maximum number of stages the O(2ⁿ·n²) DP accepts.
pub const MAX_STAGES: usize = 16;

/// Result of the routing DP.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOrder {
    /// Visiting order of the stage indices.
    pub order: Vec<usize>,
    /// Bottleneck bandwidth along the chain (`f64::INFINITY` for a single
    /// stage).
    pub bottleneck: f64,
}

/// Finds the stage order with the maximum bottleneck link bandwidth.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] if the matrix is empty, ragged, or has
/// more than [`MAX_STAGES`] stages.
pub fn best_stage_order(bandwidth: &[Vec<f64>]) -> Result<StageOrder> {
    let n = bandwidth.len();
    if n == 0 {
        return Err(Error::InvalidConfig("no stages".into()));
    }
    if bandwidth.iter().any(|r| r.len() != n) {
        return Err(Error::InvalidConfig("ragged bandwidth matrix".into()));
    }
    if n > MAX_STAGES {
        return Err(Error::InvalidConfig(format!(
            "{n} stages exceeds DP limit {MAX_STAGES}"
        )));
    }
    if n == 1 {
        return Ok(StageOrder {
            order: vec![0],
            bottleneck: f64::INFINITY,
        });
    }

    let full = (1usize << n) - 1;
    // dp[mask * n + last] = best bottleneck for a path covering mask,
    // ending at last. `last` walks the set bits of mask and `next` its clear
    // bits, both ascending: the same comparisons, in the same order, as a
    // scan of every (last, next) pair that skips the inapplicable ones.
    let mut dp = vec![f64::NEG_INFINITY; (full + 1) * n];
    let mut parent = vec![NO_PARENT; (full + 1) * n];
    for s in 0..n {
        dp[(1 << s) * n + s] = f64::INFINITY;
    }
    for mask in 1..=full {
        for last in bits(mask) {
            let cur = dp[mask * n + last];
            if cur == f64::NEG_INFINITY {
                continue;
            }
            let row = &bandwidth[last];
            for next in bits(full & !mask) {
                let nb = cur.min(row[next]);
                let slot = (mask | (1 << next)) * n + next;
                if nb > dp[slot] {
                    dp[slot] = nb;
                    parent[slot] = last as u8;
                }
            }
        }
    }
    let (mut last, mut best) = (0usize, f64::NEG_INFINITY);
    for s in 0..n {
        if dp[full * n + s] > best {
            best = dp[full * n + s];
            last = s;
        }
    }
    // reconstruct
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    let mut cur = last as u8;
    while cur != NO_PARENT {
        let c = usize::from(cur);
        order.push(c);
        cur = parent[mask * n + c];
        mask &= !(1 << c);
    }
    order.reverse();
    Ok(StageOrder {
        order,
        bottleneck: best,
    })
}

/// `parent` entry of a path's first stage.
const NO_PARENT: u8 = u8::MAX;

/// The set bits of `mask`, ascending.
fn bits(mut mask: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage() {
        let o = best_stage_order(&[vec![f64::INFINITY]]).unwrap();
        assert_eq!(o.order, vec![0]);
        assert!(o.bottleneck.is_infinite());
    }

    #[test]
    fn picks_fast_chain() {
        // 0-1 fast, 1-2 fast, 0-2 slow: order must be 0,1,2 (or reverse).
        let f = 100.0;
        let s = 1.0;
        let m = vec![vec![0.0, f, s], vec![f, 0.0, f], vec![s, f, 0.0]];
        let o = best_stage_order(&m).unwrap();
        assert_eq!(o.bottleneck, f);
        assert!(o.order == vec![0, 1, 2] || o.order == vec![2, 1, 0]);
    }

    #[test]
    fn matches_exhaustive_permutations() {
        // 5 stages with structured bandwidths; compare to brute force.
        let n = 5;
        let mut m = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m[i][j] = ((i * 7 + j * 13) % 17 + 1) as f64;
                    m[j][i] = m[i][j];
                }
            }
        }
        let dp = best_stage_order(&m).unwrap();

        fn perms(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == items.len() {
                out.push(items.clone());
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                perms(items, k + 1, out);
                items.swap(k, i);
            }
        }
        let mut all = Vec::new();
        perms(&mut (0..n).collect(), 0, &mut all);
        let brute = all
            .iter()
            .map(|p| {
                p.windows(2)
                    .map(|w| m[w[0]][w[1]])
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(dp.bottleneck, brute);
        // dp's own order achieves its claimed bottleneck
        let achieved = dp
            .order
            .windows(2)
            .map(|w| m[w[0]][w[1]])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(achieved, dp.bottleneck);
    }

    #[test]
    fn order_is_a_permutation() {
        let m = vec![vec![1.0; 4]; 4];
        let o = best_stage_order(&m).unwrap();
        let mut sorted = o.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    /// The nested-vector DP that scanned every `(last, next)` pair.
    /// [`best_stage_order`] must match it in order and bottleneck bits.
    fn best_stage_order_nested(bandwidth: &[Vec<f64>]) -> StageOrder {
        let n = bandwidth.len();
        if n == 1 {
            return StageOrder {
                order: vec![0],
                bottleneck: f64::INFINITY,
            };
        }
        let full = (1usize << n) - 1;
        let mut dp = vec![vec![f64::NEG_INFINITY; n]; full + 1];
        let mut parent = vec![vec![usize::MAX; n]; full + 1];
        for s in 0..n {
            dp[1 << s][s] = f64::INFINITY;
        }
        for mask in 1..=full {
            for last in 0..n {
                let cur = dp[mask][last];
                if cur == f64::NEG_INFINITY || mask & (1 << last) == 0 {
                    continue;
                }
                for next in 0..n {
                    if mask & (1 << next) != 0 {
                        continue;
                    }
                    let nb = cur.min(bandwidth[last][next]);
                    let nmask = mask | (1 << next);
                    if nb > dp[nmask][next] {
                        dp[nmask][next] = nb;
                        parent[nmask][next] = last;
                    }
                }
            }
        }
        let (mut last, mut best) = (0usize, f64::NEG_INFINITY);
        for s in 0..n {
            if dp[full][s] > best {
                best = dp[full][s];
                last = s;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut mask = full;
        let mut cur = last;
        while cur != usize::MAX {
            order.push(cur);
            let p = parent[mask][cur];
            mask &= !(1 << cur);
            cur = p;
        }
        order.reverse();
        StageOrder {
            order,
            bottleneck: best,
        }
    }

    #[test]
    fn flat_dp_matches_nested_dp_on_random_matrices() {
        use rand::Rng;
        // Three values force ties, so the strict `>` tie-break is exercised.
        const LEVELS: [f64; 3] = [1.25e9, 5e9, 1e15];
        let mut rng = ts_common::seeded_rng(0xD1CE_0016);
        for case in 0..2_000 {
            let n = rng.gen_range(1..=10usize);
            let m: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            if i == j {
                                0.0
                            } else {
                                LEVELS[rng.gen_range(0..LEVELS.len())]
                            }
                        })
                        .collect()
                })
                .collect();
            let got = best_stage_order(&m).unwrap();
            let want = best_stage_order_nested(&m);
            assert_eq!(got.order, want.order, "case {case}");
            assert_eq!(
                got.bottleneck.to_bits(),
                want.bottleneck.to_bits(),
                "case {case}"
            );
        }
    }

    #[test]
    fn rejects_oversized_and_ragged() {
        let big = vec![vec![1.0; 17]; 17];
        assert!(best_stage_order(&big).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(best_stage_order(&ragged).is_err());
        assert!(best_stage_order(&[]).is_err());
    }
}
