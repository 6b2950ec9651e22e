//! Deterministic weighted routing.
//!
//! The orchestration solver produces fractional routing weights; the
//! simulator and runtime need to turn them into a concrete per-request
//! choice. We use stride scheduling (deficit counters): each option
//! accumulates credit proportional to its weight and the option with the
//! largest credit wins, guaranteeing that realized shares track the weights
//! with O(1) error and no randomness.

use ts_common::{Error, Result};

/// A deterministic weighted round-robin over `n` options.
///
/// Options can be masked at runtime (fault handling): a disabled option
/// receives no credit and is never chosen, and the remaining weights are
/// renormalized so the surviving options absorb its share.
///
/// A pick touches only the *live* options (enabled, positive weight), so
/// the pick state is packed over them: slot `k` holds option `live[k]`, in
/// ascending option order. Every other option's credit is zero — disabling
/// or re-enabling an option sheds its credit, and a zero-weight option
/// never gains any — so it needs no slot.
#[derive(Debug, Clone)]
pub struct StrideRouter {
    weights: Vec<f64>,
    enabled: Vec<bool>,
    /// The option each live slot stands for, ascending.
    live: Vec<usize>,
    /// Accumulated credit per live slot.
    credit: Vec<f64>,
    /// `weight / total` per live slot, where `total` sums the enabled
    /// weights in option order. Refreshed on every mask change; `next`
    /// runs once per routed request, and a precomputed quotient keeps the
    /// division out of it.
    stride: Vec<f64>,
}

/// Independent running maxima in `next`'s first pass, and the chunk width
/// of its second.
const LANES: usize = 8;

/// `max` as a select rather than a branch. Credits are never NaN (weights
/// are finite and a pick needs a positive total), so this is the exact
/// maximum.
#[inline(always)]
fn select_max(c: f64, m: f64) -> f64 {
    if c > m {
        c
    } else {
        m
    }
}

impl StrideRouter {
    /// Creates a router over the given non-negative weights (they need not
    /// sum to 1; zero-weight options are never chosen).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(Error::InvalidConfig(
                "router needs at least one option".into(),
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(Error::InvalidConfig("weights must be non-negative".into()));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(Error::InvalidConfig("all routing weights are zero".into()));
        }
        let n = weights.len();
        let mut router = StrideRouter {
            weights,
            enabled: vec![true; n],
            live: Vec::new(),
            credit: Vec::new(),
            stride: Vec::new(),
        };
        router.repack();
        Ok(router)
    }

    /// Builds a router over the cells of a routing matrix, returning the
    /// router plus the `(row, col)` coordinates of each option.
    ///
    /// # Errors
    /// Propagates [`StrideRouter::new`] failures.
    pub fn from_matrix(rates: &[Vec<f64>]) -> Result<(Self, Vec<(usize, usize)>)> {
        let mut weights = Vec::new();
        let mut coords = Vec::new();
        for (i, row) in rates.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                if w > 0.0 {
                    weights.push(w);
                    coords.push((i, j));
                }
            }
        }
        Ok((Self::new(weights)?, coords))
    }

    /// Picks the next option among the enabled ones. (Deliberately named
    /// like `Iterator::next`; the router is an infinite choice stream, not
    /// an iterator.)
    ///
    /// # Panics
    /// Panics if every option is disabled ([`Self::num_enabled`] is zero);
    /// callers must shed or queue traffic instead of routing it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> usize {
        assert!(!self.live.is_empty(), "all routing options are disabled");
        // Pass 1: top up every live slot and track the max in `LANES`
        // independent lanes, with no branch in the loop body.
        let mut lanes = [f64::NEG_INFINITY; LANES];
        let (credit, credit_tail) = self.credit.as_chunks_mut::<LANES>();
        let (stride, stride_tail) = self.stride.as_chunks::<LANES>();
        for (c, s) in credit.iter_mut().zip(stride) {
            for l in 0..LANES {
                c[l] += s[l];
                lanes[l] = select_max(c[l], lanes[l]);
            }
        }
        for (c, s) in credit_tail.iter_mut().zip(stride_tail) {
            *c += s;
            lanes[0] = select_max(*c, lanes[0]);
        }
        let max = lanes.into_iter().fold(f64::NEG_INFINITY, select_max);
        // Pass 2: the *last* slot holding the max, which is the tie-break a
        // single `>=` arg-max scan in option order makes. Whole chunks are
        // tested without a branch per slot.
        let (chunks, tail) = self.credit.as_chunks::<LANES>();
        let k = match tail.iter().rposition(|&c| c == max) {
            Some(j) => LANES * chunks.len() + j,
            None => {
                let ci = chunks
                    .iter()
                    .rposition(|c| c.iter().fold(false, |hit, &x| hit | (x == max)))
                    .expect("the max is some slot's credit");
                let j = chunks[ci].iter().rposition(|&c| c == max);
                LANES * ci + j.expect("the chunk holds the max")
            }
        };
        self.credit[k] -= 1.0;
        self.live[k]
    }

    /// Masks or unmasks option `i`. Disabling sheds its credit (a revived
    /// option starts fresh rather than bursting to catch up) and
    /// renormalizes the surviving weights. Re-asserting an option's
    /// current state still sheds its credit.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_enabled(&mut self, i: usize, enabled: bool) {
        if self.enabled[i] != enabled {
            self.enabled[i] = enabled;
            self.repack();
        } else if let Ok(k) = self.live.binary_search(&i) {
            self.credit[k] = 0.0;
        }
    }

    /// Applies a full enable mask: option `i` ends up enabled iff
    /// `mask[i]`. Only options whose state actually changes shed their
    /// credit, so unchanged options keep what they accumulated (a no-op
    /// mask application must not perturb the routing sequence). The
    /// weights are renormalized once, whatever the number of flips.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the number of options.
    pub fn apply_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.weights.len(), "mask length mismatch");
        if self.enabled != mask {
            self.enabled.copy_from_slice(mask);
            self.repack();
        }
    }

    /// Rebuilds the live packing from `enabled`: strides are recomputed
    /// against the new enabled total, options live before and after keep
    /// their credit, and options that just came alive start at zero.
    fn repack(&mut self) {
        let total: f64 = self
            .weights
            .iter()
            .zip(&self.enabled)
            .filter(|(_, &e)| e)
            .map(|(w, _)| w)
            .sum();
        let mut before = std::mem::take(&mut self.live)
            .into_iter()
            .zip(std::mem::take(&mut self.credit))
            .peekable();
        self.stride.clear();
        for (i, (&w, &e)) in self.weights.iter().zip(&self.enabled).enumerate() {
            if !(e && w > 0.0) {
                continue;
            }
            while before.next_if(|&(j, _)| j < i).is_some() {}
            let credit = before.next_if(|&(j, _)| j == i).map_or(0.0, |(_, c)| c);
            self.live.push(i);
            self.credit.push(credit);
            self.stride.push(w / total);
        }
    }

    /// Whether option `i` is currently enabled.
    pub fn is_enabled(&self, i: usize) -> bool {
        self.enabled[i]
    }

    /// Number of enabled options with positive weight (choices `next` can
    /// actually make).
    pub fn num_enabled(&self) -> usize {
        self.live.len()
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the router has no options (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn realized_shares_track_weights() {
        let mut r = StrideRouter::new(vec![0.5, 0.3, 0.2]).unwrap();
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[r.next()] += 1;
        }
        assert!((counts[0] as f64 - 500.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[1] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[2] as f64 - 200.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn zero_weight_options_never_chosen() {
        let mut r = StrideRouter::new(vec![0.0, 1.0]).unwrap();
        for _ in 0..50 {
            assert_eq!(r.next(), 1);
        }
    }

    #[test]
    fn deterministic_sequence() {
        let mut a = StrideRouter::new(vec![2.0, 1.0]).unwrap();
        let mut b = StrideRouter::new(vec![2.0, 1.0]).unwrap();
        let sa: Vec<usize> = (0..20).map(|_| a.next()).collect();
        let sb: Vec<usize> = (0..20).map(|_| b.next()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn from_matrix_skips_zero_cells() {
        let rates = vec![vec![0.5, 0.0], vec![0.0, 0.5]];
        let (r, coords) = StrideRouter::from_matrix(&rates).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(coords, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn disabled_options_are_skipped_and_share_renormalizes() {
        let mut r = StrideRouter::new(vec![0.5, 0.3, 0.2]).unwrap();
        assert_eq!(r.num_enabled(), 3);
        r.set_enabled(0, false);
        assert!(!r.is_enabled(0));
        assert_eq!(r.num_enabled(), 2);
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[r.next()] += 1;
        }
        assert_eq!(counts[0], 0);
        // survivors absorb the dead option's share: 0.3/0.5 vs 0.2/0.5
        assert!((counts[1] as f64 - 600.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[2] as f64 - 400.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn reenabled_option_resumes_its_share() {
        let mut r = StrideRouter::new(vec![1.0, 1.0]).unwrap();
        r.set_enabled(1, false);
        for _ in 0..10 {
            assert_eq!(r.next(), 0);
        }
        r.set_enabled(1, true);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[r.next()] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    #[test]
    fn apply_mask_only_touches_changed_options() {
        // A no-op mask must not shed credit: the routing sequence with a
        // redundant apply_mask interleaved must equal the untouched one.
        let mut a = StrideRouter::new(vec![0.6, 0.4]).unwrap();
        let mut b = StrideRouter::new(vec![0.6, 0.4]).unwrap();
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        for step in 0..40 {
            if step % 3 == 0 {
                b.apply_mask(&[true, true]); // no-op
            }
            sa.push(a.next());
            sb.push(b.next());
        }
        assert_eq!(sa, sb);
        // A real change does take effect.
        b.apply_mask(&[true, false]);
        assert_eq!(b.num_enabled(), 1);
        for _ in 0..10 {
            assert_eq!(b.next(), 0);
        }
        b.apply_mask(&[true, true]);
        assert_eq!(b.num_enabled(), 2);
    }

    #[test]
    #[should_panic]
    fn next_with_all_disabled_panics() {
        let mut r = StrideRouter::new(vec![1.0]).unwrap();
        r.set_enabled(0, false);
        assert_eq!(r.num_enabled(), 0);
        let _ = r.next();
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(StrideRouter::new(vec![]).is_err());
        assert!(StrideRouter::new(vec![-1.0]).is_err());
        assert!(StrideRouter::new(vec![0.0, 0.0]).is_err());
        assert!(StrideRouter::new(vec![f64::NAN]).is_err());
    }

    /// The unpacked scan the packed router replaced, kept as the oracle:
    /// every option carries a credit and a stride, a pick tops up every
    /// enabled option and keeps the last `>=` maximum, and each flip
    /// renormalizes over the whole mask.
    struct Scan {
        weights: Vec<f64>,
        credit: Vec<f64>,
        enabled: Vec<bool>,
        total: f64,
        stride: Vec<f64>,
    }

    impl Scan {
        fn new(weights: Vec<f64>) -> Self {
            let total: f64 = weights.iter().sum();
            let n = weights.len();
            let stride = weights.iter().map(|w| w / total).collect();
            Scan {
                weights,
                credit: vec![0.0; n],
                enabled: vec![true; n],
                total,
                stride,
            }
        }

        fn next(&mut self) -> usize {
            assert!(self.total > 0.0, "all routing options are disabled");
            let mut best = None;
            let mut best_credit = f64::NEG_INFINITY;
            for i in 0..self.credit.len() {
                if !self.enabled[i] {
                    continue;
                }
                self.credit[i] += self.stride[i];
                if self.weights[i] > 0.0 && self.credit[i] >= best_credit {
                    best_credit = self.credit[i];
                    best = Some(i);
                }
            }
            let best = best.expect("router has an enabled option");
            self.credit[best] -= 1.0;
            best
        }

        fn set_enabled(&mut self, i: usize, enabled: bool) {
            self.enabled[i] = enabled;
            self.credit[i] = 0.0;
            self.total = self
                .weights
                .iter()
                .zip(&self.enabled)
                .filter(|(_, &e)| e)
                .map(|(w, _)| w)
                .sum();
            for (s, w) in self.stride.iter_mut().zip(&self.weights) {
                *s = w / self.total;
            }
        }

        fn apply_mask(&mut self, mask: &[bool]) {
            for (i, &want) in mask.iter().enumerate() {
                if self.enabled[i] != want {
                    self.set_enabled(i, want);
                }
            }
        }

        fn num_enabled(&self) -> usize {
            self.enabled
                .iter()
                .zip(&self.weights)
                .filter(|(&e, &w)| e && w > 0.0)
                .count()
        }
    }

    /// The packed router's credit per option, zero for options with no
    /// live slot.
    fn credits(r: &StrideRouter) -> Vec<f64> {
        let mut out = vec![0.0; r.len()];
        for (&i, &c) in r.live.iter().zip(&r.credit) {
            out[i] = c;
        }
        out
    }

    fn assert_same_state(packed: &StrideRouter, scan: &Scan, ctx: &str) {
        assert_eq!(packed.num_enabled(), scan.num_enabled(), "{ctx}");
        assert_eq!(packed.enabled, scan.enabled, "{ctx}");
        let bits = |cs: &[f64]| cs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&credits(packed)), bits(&scan.credit), "{ctx}");
    }

    /// A weight drawn from the shapes that stress the arithmetic: zeros,
    /// exact ties, `1/k` quotients and arbitrary values.
    fn draw_weight(rng: &mut StdRng, n: usize) -> f64 {
        match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => 1.0,
            2 => 1.0 / n as f64,
            _ => rng.gen_range(0.0..10.0),
        }
    }

    #[test]
    fn packed_router_matches_the_scan_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5717_de00);
        for case in 0..2_000 {
            // Log-uniform sizes: every chunk-remainder shape below 8 comes up
            // often, and the scan's O(n) renormalization per flip keeps the
            // large cases affordable.
            let n = (1_100f64.powf(rng.gen_range(0.0..=1.0)) as usize).clamp(1, 1_100);
            let mut weights: Vec<f64> = (0..n).map(|_| draw_weight(&mut rng, n)).collect();
            if weights.iter().all(|&w| w == 0.0) {
                weights[rng.gen_range(0..n)] = 1.0;
            }
            let mut packed = StrideRouter::new(weights.clone()).unwrap();
            let mut scan = Scan::new(weights);
            for step in 0..rng.gen_range(1..=24usize) {
                let ctx = format!("case {case} (n={n}) step {step}");
                match rng.gen_range(0..8u32) {
                    0 => {
                        let i = rng.gen_range(0..n);
                        let on = rng.gen_bool(0.5);
                        packed.set_enabled(i, on);
                        scan.set_enabled(i, on);
                    }
                    1 => {
                        // Flip one option, a few, or a large share at once.
                        let p = [1.0, 4.0, 0.05 * n as f64, 0.5 * n as f64]
                            [rng.gen_range(0..4usize)]
                            / n as f64;
                        let mask: Vec<bool> = (0..n)
                            .map(|i| scan.enabled[i] != rng.gen_bool(p.min(1.0)))
                            .collect();
                        packed.apply_mask(&mask);
                        scan.apply_mask(&mask);
                    }
                    _ => {
                        if scan.num_enabled() > 0 {
                            for _ in 0..rng.gen_range(1..=8usize) {
                                assert_eq!(packed.next(), scan.next(), "{ctx}");
                            }
                        }
                    }
                }
                assert_same_state(&packed, &scan, &ctx);
            }
        }
    }

    #[test]
    fn packed_router_matches_the_scan_on_the_fleet_shape() {
        // The 1,024 equal cells of a large two-diagonal plan: every pick
        // breaks a many-way tie.
        let weights = vec![1.0 / 1024.0; 1024];
        let mut packed = StrideRouter::new(weights.clone()).unwrap();
        let mut scan = Scan::new(weights);
        for step in 0..200_000 {
            assert_eq!(packed.next(), scan.next(), "pick {step}");
        }
        assert_same_state(&packed, &scan, "after 200k picks");
    }

    #[test]
    fn one_mask_renormalizes_like_sequential_flips() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 300;
        let weights: Vec<f64> = (0..n).map(|_| draw_weight(&mut rng, n)).collect();
        let mut masked = StrideRouter::new(weights.clone()).unwrap();
        let mut flipped = StrideRouter::new(weights).unwrap();
        for round in 0..20 {
            for _ in 0..50 {
                assert_eq!(masked.next(), flipped.next(), "round {round}");
            }
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
            masked.apply_mask(&mask);
            for (i, &want) in mask.iter().enumerate() {
                if flipped.is_enabled(i) != want {
                    flipped.set_enabled(i, want);
                }
            }
            let bits = |r: &StrideRouter| {
                let credit = credits(r).iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let stride = r.stride.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                (r.live.clone(), credit, stride)
            };
            assert_eq!(bits(&masked), bits(&flipped), "round {round}");
        }
    }
}
