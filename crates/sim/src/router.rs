//! Deterministic weighted routing.
//!
//! The orchestration solver produces fractional routing weights; the
//! simulator and runtime need to turn them into a concrete per-request
//! choice. We use stride scheduling (deficit counters): each option
//! accumulates credit proportional to its weight and the option with the
//! largest credit wins, guaranteeing that realized shares track the weights
//! with O(1) error and no randomness.

use ts_common::{Error, Result, RoutingSupport};

/// A deterministic weighted round-robin over `n` options.
///
/// Options can be masked at runtime (fault handling): a disabled option
/// receives no credit and is never chosen, and the remaining weights are
/// renormalized so the surviving options absorb its share.
///
/// A pick touches only the *live* options (enabled, positive weight);
/// every other option's credit is zero — disabling or re-enabling an
/// option sheds its credit, and a zero-weight option never gains any. The
/// live options are grouped into *levels*: a level holds the options that
/// share a stride and a credit, bit for bit. Options with the same stride
/// receive the same f64 addition on every pick, so a level's members stay
/// bit-equal until one of them is picked, and a pick costs O(levels), not
/// O(options).
///
/// The levels are ordered by stride (ascending), then credit (descending),
/// and no two levels share both. The levels of one stride form a *class*.
/// A level's members are a list linked through `next` in descending option
/// order, from `top` to `bottom`.
#[derive(Debug, Clone)]
pub struct StrideRouter {
    weights: Vec<f64>,
    enabled: Vec<bool>,
    /// Number of live options.
    live: usize,
    /// Accumulated credit per level.
    credit: Vec<f64>,
    /// `weight / total` per level, where `total` sums the enabled weights
    /// in option order. Refreshed on every mask change; `next` runs once
    /// per routed request, and a precomputed quotient keeps the division
    /// out of it.
    stride: Vec<f64>,
    /// The largest option of each level.
    top: Vec<usize>,
    /// The smallest option of each level.
    bottom: Vec<usize>,
    /// Per option: the next smaller member of its level, or [`NIL`].
    next: Vec<usize>,
    work: RouterWork,
}

/// The end of a level's member list.
const NIL: usize = usize::MAX;

/// Router work counters: machine-independent, so a change to the pick
/// shows up here exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterWork {
    /// Cells the constructor visited: every weight for
    /// [`StrideRouter::new`], every held cell of the support for
    /// [`StrideRouter::from_support`] and every dense cell for
    /// [`StrideRouter::from_matrix`].
    pub cells: u64,
    /// Calls to [`StrideRouter::next`].
    pub picks: u64,
    /// Levels topped up, summed over the picks. With all-distinct weights
    /// every level has one member, and this counts live options.
    pub levels_scanned: u64,
}

impl std::ops::AddAssign for RouterWork {
    fn add_assign(&mut self, o: RouterWork) {
        self.cells += o.cells;
        self.picks += o.picks;
        self.levels_scanned += o.levels_scanned;
    }
}

/// Unites two disjoint member lists, given as `(top, bottom)`, into one
/// descending list and returns its ends. Lists whose ranges do not
/// interleave are joined in O(1); others are merged.
fn unite(next: &mut [usize], a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    let (hi, lo) = if a.0 > b.0 { (a, b) } else { (b, a) };
    let (mut tail, mut x, mut y) = (hi.0, next[hi.0], lo.0);
    if hi.1 > lo.0 {
        (tail, x) = (hi.1, NIL);
    }
    loop {
        if x == NIL {
            next[tail] = y;
            return (hi.0, lo.1);
        }
        if y == NIL {
            next[tail] = x;
            return (hi.0, hi.1);
        }
        if x > y {
            next[tail] = x;
            (tail, x) = (x, next[x]);
        } else {
            next[tail] = y;
            (tail, y) = (y, next[y]);
        }
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
            live: 0,
            credit: Vec::new(),
            stride: Vec::new(),
            top: Vec::new(),
            bottom: Vec::new(),
            next: vec![NIL; n],
            work: RouterWork {
                cells: n as u64,
                ..RouterWork::default()
            },
        };
        router.rebuild(vec![0.0; n]);
        Ok(router)
    }

    /// Builds a router over the positive cells of a routing matrix's
    /// support, in row-major order, returning the router plus the
    /// `(row, col)` coordinates of each option. The support holds every
    /// cell that is not `+0.0`, so these are the positive cells of the
    /// dense matrix in the same order.
    ///
    /// # Errors
    /// Propagates [`StrideRouter::new`] failures.
    pub fn from_support(support: &RoutingSupport) -> Result<(Self, Vec<(usize, usize)>)> {
        let mut weights = Vec::new();
        let mut coords = Vec::new();
        for (i, j, w) in support.iter() {
            if w > 0.0 {
                weights.push(w);
                coords.push((i, j));
            }
        }
        let mut router = Self::new(weights)?;
        router.work.cells = support.len() as u64;
        Ok((router, coords))
    }

    /// [`StrideRouter::from_support`] over dense rows, which it visits
    /// once to find their support.
    ///
    /// # Errors
    /// Propagates [`StrideRouter::new`] failures.
    pub fn from_matrix(rates: &[Vec<f64>]) -> Result<(Self, Vec<(usize, usize)>)> {
        let (mut router, coords) = Self::from_support(&RoutingSupport::from_rows(rates))?;
        router.work.cells = rates.iter().map(|row| row.len() as u64).sum();
        Ok((router, coords))
    }

    /// Picks the next option among the enabled ones: every live option
    /// gains its stride, the largest option holding the largest credit
    /// wins and pays 1. (Deliberately named like `Iterator::next`; the
    /// router is an infinite choice stream, not an iterator.)
    ///
    /// # Panics
    /// Panics if every option is disabled ([`Self::num_enabled`] is zero);
    /// callers must shed or queue traffic instead of routing it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> usize {
        assert!(self.live > 0, "all routing options are disabled");
        self.work.picks += 1;
        self.work.levels_scanned += self.credit.len() as u64;
        let l = self.top_up_and_choose();
        let picked = self.top[l];
        self.move_top(l);
        picked
    }

    /// Tops up every level and returns the level to pick, in one pass for
    /// any number of levels. The pass also looks for neighbouring levels
    /// the top-up made equal, and merges them before returning.
    fn top_up_and_choose(&mut self) -> usize {
        let (credit, stride, top) = (&mut self.credit, &self.stride, &self.top);
        let (mut best, mut merge) = (0, false);
        for l in 0..credit.len() {
            credit[l] += stride[l];
            let (c, b) = (credit[l], credit[best]);
            if c > b || (c == b && top[l] > top[best]) {
                best = l;
            }
            if l > 0 {
                merge |= (c == credit[l - 1]) & (stride[l] == stride[l - 1]);
            }
        }
        if merge {
            return self.merge_equal_levels(best);
        }
        best
    }

    /// Merges the levels that one top-up made equal and returns the index
    /// level `keep` ends up in. Round-to-nearest addition is monotone, so a
    /// class's levels stay ordered by credit and two levels that round
    /// together are adjacent. The level to pick stays the pick: the levels
    /// merged into it share its credit, so none holds a larger option.
    #[inline(never)]
    fn merge_equal_levels(&mut self, keep: usize) -> usize {
        let (mut w, mut kept) = (0, 0);
        for l in 1..self.credit.len() {
            if self.stride[w] == self.stride[l] && self.credit[w] == self.credit[l] {
                let ends = (self.top[w], self.bottom[w]);
                (self.top[w], self.bottom[w]) =
                    unite(&mut self.next, ends, (self.top[l], self.bottom[l]));
            } else {
                w += 1;
                self.credit[w] = self.credit[l];
                self.stride[w] = self.stride[l];
                self.top[w] = self.top[l];
                self.bottom[w] = self.bottom[l];
            }
            if l == keep {
                kept = w;
            }
        }
        self.truncate_levels(w + 1);
        kept
    }

    /// Moves level `l`'s top option, just picked, to credit `credit[l] - 1`:
    /// into that level of its class if there is one, else into a new level
    /// at its place in the order. `l` is the first level of its class,
    /// since it holds the class's largest credit.
    fn move_top(&mut self, l: usize) {
        let o = self.top[l];
        let (s, c) = (self.stride[l], self.credit[l] - 1.0);
        let single = o == self.bottom[l];
        // The class's other levels follow `l` in descending credit, then
        // come the larger strides.
        let after = l + 1;
        let alone = self.stride.get(after) != Some(&s);
        if single && alone {
            // The one member of its class's one level: the level moves
            // with it.
            self.credit[l] = c;
            return;
        }
        self.move_within_class(l, o, c, single, alone);
    }

    /// The rest of [`Self::move_top`], out of line so that the pick the
    /// event loop inlines stays small.
    #[inline(never)]
    fn move_within_class(&mut self, l: usize, o: usize, c: f64, single: bool, alone: bool) {
        let (s, after) = (self.stride[l], l + 1);
        if !single {
            self.top[l] = self.next[o];
            self.next[o] = NIL;
        }
        // The target's place is a binary search away.
        let (mut end, mut p) = (after, after);
        if !alone {
            end += self.stride[after..].partition_point(|&x| x == s);
            p += self.credit[after..end].partition_point(|&x| x > c);
        }
        if p < end && self.credit[p] == c {
            let ends = (self.top[p], self.bottom[p]);
            (self.top[p], self.bottom[p]) = unite(&mut self.next, ends, (o, o));
            if single {
                self.remove_level(l);
            }
        } else if single {
            // The level moves with its one member, past the levels of its
            // class that now sort before it.
            self.credit[l..p].rotate_left(1);
            self.stride[l..p].rotate_left(1);
            self.top[l..p].rotate_left(1);
            self.bottom[l..p].rotate_left(1);
            self.credit[p - 1] = c;
        } else {
            self.credit.insert(p, c);
            self.stride.insert(p, s);
            self.top.insert(p, o);
            self.bottom.insert(p, o);
        }
    }

    fn remove_level(&mut self, l: usize) {
        self.credit.remove(l);
        self.stride.remove(l);
        self.top.remove(l);
        self.bottom.remove(l);
    }

    fn truncate_levels(&mut self, len: usize) {
        self.credit.truncate(len);
        self.stride.truncate(len);
        self.top.truncate(len);
        self.bottom.truncate(len);
    }

    /// Each option's credit; zero for options in no level.
    fn credits(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.weights.len()];
        for (l, &c) in self.credit.iter().enumerate() {
            let mut o = self.top[l];
            while o != NIL {
                out[o] = c;
                o = self.next[o];
            }
        }
        out
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
            let credit = self.credits();
            self.enabled.copy_from_slice(mask);
            self.rebuild(credit);
        }
    }

    /// Rebuilds the levels from `enabled` and per-option credits: strides
    /// are recomputed against the new enabled total, options live before
    /// and after keep their credit, and options that just came alive start
    /// at zero (they were in no level).
    fn rebuild(&mut self, credit: Vec<f64>) {
        let total: f64 = self
            .weights
            .iter()
            .zip(&self.enabled)
            .filter(|(_, &e)| e)
            .map(|(w, _)| w)
            .sum();
        let mut live: Vec<(f64, f64, usize)> = (self.weights.iter().zip(&self.enabled))
            .enumerate()
            .filter(|(_, (&w, &e))| e && w > 0.0)
            .map(|(i, (&w, _))| (w / total, credit[i], i))
            .collect();
        // Stride ascending, credit descending, option descending.
        live.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(b.1.total_cmp(&a.1))
                .then(b.2.cmp(&a.2))
        });
        self.live = live.len();
        self.truncate_levels(0);
        for level in live.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1) {
            for pair in level.windows(2) {
                self.next[pair[0].2] = pair[1].2;
            }
            let (s, c, top) = level[0];
            let bottom = level[level.len() - 1].2;
            self.next[bottom] = NIL;
            self.credit.push(c);
            self.stride.push(s);
            self.top.push(top);
            self.bottom.push(bottom);
        }
    }

    /// The router's work so far.
    pub fn work(&self) -> RouterWork {
        self.work
    }

    /// Whether option `i` is currently enabled.
    pub fn is_enabled(&self, i: usize) -> bool {
        self.enabled[i]
    }

    /// Number of enabled options with positive weight (choices `next` can
    /// actually make).
    pub fn num_enabled(&self) -> usize {
        self.live
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
impl StrideRouter {
    /// Masks or unmasks option `i`, one flip at a time: the oracle that
    /// [`StrideRouter::apply_mask`] must match. Disabling sheds its credit
    /// (a revived option starts fresh rather than bursting to catch up) and
    /// renormalizes the surviving weights. Re-asserting an option's current
    /// state still sheds its credit.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    fn set_enabled(&mut self, i: usize, enabled: bool) {
        let mut credit = self.credits();
        if self.enabled[i] != enabled {
            self.enabled[i] = enabled;
        } else {
            credit[i] = 0.0;
        }
        self.rebuild(credit);
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
        assert_eq!(r.work().cells, 4, "the dense adapter visits every cell");
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

    /// The members of level `l`, as its list runs: descending.
    fn members(r: &StrideRouter, l: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut o = r.top[l];
        while o != NIL {
            out.push(o);
            o = r.next[o];
        }
        out
    }

    /// The router's stride per option, zero for options in no level.
    fn strides(r: &StrideRouter) -> Vec<f64> {
        let mut out = vec![0.0; r.len()];
        for l in 0..r.credit.len() {
            for o in members(r, l) {
                out[o] = r.stride[l];
            }
        }
        out
    }

    /// The level invariants: every live option in exactly one level, whose
    /// stride and credit bits it shares with the scan; lists descending
    /// from `top` to `bottom`; levels ordered by stride, then strictly by
    /// credit, so no two levels could merge; and at most one level per
    /// live option.
    fn assert_levels(r: &StrideRouter, scan: &Scan, ctx: &str) {
        let levels = r.credit.len();
        assert!(levels <= r.num_enabled(), "{ctx}: {levels} levels");
        assert_eq!([r.stride.len(), r.top.len(), r.bottom.len()], [levels; 3]);
        let mut seen = vec![false; r.len()];
        for l in 0..levels {
            let m = members(r, l);
            assert!(m.windows(2).all(|w| w[0] > w[1]), "{ctx}: level {l} {m:?}");
            assert_eq!(m.last(), Some(&r.bottom[l]), "{ctx}: level {l}");
            for &o in &m {
                assert!(!std::mem::replace(&mut seen[o], true), "{ctx}: {o} twice");
                assert_eq!(
                    r.stride[l].to_bits(),
                    scan.stride[o].to_bits(),
                    "{ctx}: {o}"
                );
                assert_eq!(
                    r.credit[l].to_bits(),
                    scan.credit[o].to_bits(),
                    "{ctx}: {o}"
                );
            }
            if l > 0 {
                let (s0, s1) = (r.stride[l - 1], r.stride[l]);
                let (c0, c1) = (r.credit[l - 1], r.credit[l]);
                assert!(s0 < s1 || (s0 == s1 && c0 > c1), "{ctx}: levels {l}");
            }
        }
        let live: Vec<bool> = (0..r.len())
            .map(|i| scan.enabled[i] && scan.weights[i] > 0.0)
            .collect();
        assert_eq!(seen, live, "{ctx}");
    }

    fn assert_same_state(packed: &StrideRouter, scan: &Scan, ctx: &str) {
        assert_eq!(packed.num_enabled(), scan.num_enabled(), "{ctx}");
        assert_eq!(packed.enabled, scan.enabled, "{ctx}");
        let bits = |cs: &[f64]| cs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&packed.credits()), bits(&scan.credit), "{ctx}");
        assert_levels(packed, scan, ctx);
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

    /// Replays up to 24 random steps on the router and the scan, checking
    /// their state after each: a flip, a mask, or a burst of up to `burst`
    /// picks.
    fn replay(rng: &mut StdRng, weights: Vec<f64>, burst: usize, case: &str) {
        let n = weights.len();
        let mut packed = StrideRouter::new(weights.clone()).unwrap();
        let mut scan = Scan::new(weights);
        for step in 0..rng.gen_range(1..=24usize) {
            let ctx = format!("{case} (n={n}) step {step}");
            match rng.gen_range(0..8u32) {
                0 => {
                    let i = rng.gen_range(0..n);
                    let on = rng.gen_bool(0.5);
                    packed.set_enabled(i, on);
                    scan.set_enabled(i, on);
                }
                1 => {
                    // Flip one option, a few, or a large share at once.
                    let p = [1.0, 4.0, 0.05 * n as f64, 0.5 * n as f64][rng.gen_range(0..4usize)]
                        / n as f64;
                    let mask: Vec<bool> = (0..n)
                        .map(|i| scan.enabled[i] != rng.gen_bool(p.min(1.0)))
                        .collect();
                    packed.apply_mask(&mask);
                    scan.apply_mask(&mask);
                }
                _ => {
                    if scan.num_enabled() > 0 {
                        for _ in 0..rng.gen_range(1..=burst) {
                            assert_eq!(packed.next(), scan.next(), "{ctx}");
                        }
                    }
                }
            }
            assert_same_state(&packed, &scan, &ctx);
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
            replay(&mut rng, weights, 8, &format!("case {case}"));
        }
        // One to eight classes of equal weights whose shares are not powers
        // of two: the rounding of `credit + stride` and `credit - 1` splits
        // a class into many levels (1,024 cells of weight 0.1 hold 184 on
        // average), which merge and split again as picks go on.
        let mut rng = StdRng::seed_from_u64(0x5717_de01);
        for case in 0..300 {
            let n = (1_024f64.powf(rng.gen_range(0.0..=1.0)) as usize).clamp(1, 1_024);
            let k = rng.gen_range(1..=8usize);
            let class: Vec<f64> = (0..k)
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => 0.0007,
                    1 => 0.1,
                    2 => 0.3,
                    3 => 0.7,
                    _ => rng.gen_range(0.001..1.0),
                })
                .collect();
            let weights = (0..n).map(|_| class[rng.gen_range(0..k)]).collect();
            replay(
                &mut rng,
                weights,
                256,
                &format!("class case {case} (k={k})"),
            );
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
    fn packed_router_matches_the_scan_on_the_paired_shape() {
        // The paired plan of `BENCH_sim`'s 1M-request arm: prefill `i` feeds
        // decode `i`, 512 cells of 1/512.
        let weights = vec![1.0 / 512.0; 512];
        let mut packed = StrideRouter::new(weights.clone()).unwrap();
        let mut scan = Scan::new(weights);
        for step in 0..200_000 {
            assert_eq!(packed.next(), scan.next(), "pick {step}");
        }
        assert_same_state(&packed, &scan, "after 200k picks");
    }

    #[test]
    fn router_work_is_pinned_on_the_fleet_and_paired_shapes() {
        // `fleet_1m`'s 1,024 cells and `BENCH_sim`'s 512: one power-of-two
        // stride each, so a pick scans two levels, the options still to be
        // picked this round and those already picked, except the first pick
        // of each round, which finds them all in one.
        for (n, levels_scanned) in [(1024, 399_804), (512, 399_609)] {
            let mut r = StrideRouter::new(vec![1.0 / n as f64; n]).unwrap();
            for _ in 0..200_000 {
                r.next();
            }
            let work = RouterWork {
                cells: n as u64,
                picks: 200_000,
                levels_scanned,
            };
            assert_eq!(r.work(), work, "{n} cells");
        }
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
                let credit = r.credits().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let stride = strides(r).iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                (credit, stride)
            };
            assert_eq!(bits(&masked), bits(&flipped), "round {round}");
        }
    }
}
