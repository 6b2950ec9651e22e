//! Dense two-phase primal simplex.
//!
//! Solves `max c·x` subject to linear constraints (`≤`, `≥`, `=`) and
//! `x ≥ 0`. Designed for the small, dense programs the scheduler produces
//! (tens of variables); uses Bland's rule to guarantee termination.
//!
//! One core serves every program. The tableau is one row-major buffer of
//! stride `total + 1`, where the last cell of a row is its right-hand side.
//! Each thread keeps its tableau, basis and cost buffers and reuses them
//! for every solve, clearing them first, so a result depends only on the
//! program and a warm solve allocates nothing. [`LinearProgram`] copies its
//! rows in; [`crate::transport`] writes the orchestration rows straight in.
//! A feasibility check runs phase 1 alone and returns the error phase 1 of
//! the full solve would return
//! ([`OrchestrationProblem::check_feasible`](crate::transport::OrchestrationProblem::check_feasible)).

use std::cell::RefCell;
use ts_common::{Error, Result};

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

impl Relation {
    /// The relation of the row `a·x REL b` once a negative `b` has been
    /// negated, which turns an inequality around.
    fn normalized(self, b: f64) -> Relation {
        match self {
            Relation::Le if b < 0.0 => Relation::Ge,
            Relation::Ge if b < 0.0 => Relation::Le,
            rel => rel,
        }
    }
}

/// An LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub value: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

const EPS: f64 = 1e-9;
const MAX_ITERS: usize = 100_000;

impl LinearProgram {
    /// Creates a program over `num_vars` non-negative variables with a zero
    /// objective.
    ///
    /// # Panics
    /// Panics if `num_vars` is zero.
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars > 0, "LP needs at least one variable");
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
        }
    }

    /// Sets the maximization objective coefficients.
    ///
    /// # Panics
    /// Panics if the length does not match `num_vars`.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        assert_eq!(c.len(), self.num_vars, "objective length mismatch");
        self.objective = c;
    }

    /// Adds a constraint `a·x REL b`.
    ///
    /// # Panics
    /// Panics if the coefficient length does not match `num_vars` or any
    /// value is non-finite.
    pub fn add_constraint(&mut self, a: Vec<f64>, rel: Relation, b: f64) {
        assert_eq!(a.len(), self.num_vars, "constraint length mismatch");
        assert!(
            a.iter().all(|v| v.is_finite()) && b.is_finite(),
            "non-finite constraint"
        );
        self.rows.push((a, rel, b));
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Solves the program.
    ///
    /// # Errors
    /// Returns [`Error::SolverFailed`] when the program is infeasible or
    /// unbounded.
    pub fn solve(&self) -> Result<Solution> {
        if self.rows.is_empty() {
            // Unbounded unless the objective is non-positive everywhere.
            if self.objective.iter().all(|&c| c <= EPS) {
                return Ok(Solution {
                    x: vec![0.0; self.num_vars],
                    value: 0.0,
                });
            }
            return Err(Error::SolverFailed("unbounded: no constraints".into()));
        }
        with_tableau(|tab| {
            self.load(tab);
            let value = tab.solve(|c| c.copy_from_slice(&self.objective))?;
            Ok(Solution {
                x: tab.x().to_vec(),
                value,
            })
        })
    }

    /// Writes the rows into `tab`.
    fn load(&self, tab: &mut Tableau) {
        let count = |pick: fn(Relation) -> bool| {
            self.rows
                .iter()
                .filter(|&&(_, rel, b)| pick(rel.normalized(b)))
                .count()
        };
        let num_slack = count(|rel| matches!(rel, Relation::Le | Relation::Ge));
        let num_art = count(|rel| matches!(rel, Relation::Ge | Relation::Eq));
        tab.reset(self.num_vars, self.rows.len(), num_slack, num_art);
        for (a, rel, b) in &self.rows {
            tab.push_row(*rel, *b, |row| row.copy_from_slice(a));
        }
    }
}

thread_local! {
    static TABLEAU: RefCell<Tableau> = RefCell::new(Tableau::default());
}

/// Runs `f` on this thread's reusable tableau.
pub(crate) fn with_tableau<R>(f: impl FnOnce(&mut Tableau) -> R) -> R {
    TABLEAU.with(|tab| f(&mut tab.borrow_mut()))
}

/// A standard-form tableau and the buffers of its solve.
///
/// Columns: the `n` program variables, then one slack or surplus per
/// inequality row, then one artificial per `≥` or `=` row, then the
/// right-hand side. Right-hand sides are non-negative.
#[derive(Debug, Default)]
pub(crate) struct Tableau {
    /// `m` rows of `total + 1` cells, row-major.
    t: Vec<f64>,
    basis: Vec<usize>,
    cost: Vec<f64>,
    /// [`run_simplex`]'s list of costed basic rows.
    costed: Vec<(usize, f64)>,
    x: Vec<f64>,
    n: usize,
    /// The first artificial column.
    art0: usize,
    total: usize,
    /// Rows written so far, and the next free slack and artificial columns.
    rows: usize,
    next_slack: usize,
    next_art: usize,
}

impl Tableau {
    /// Clears the tableau for `m` rows over `n` variables. `num_slack` and
    /// `num_art` count the rows that need a slack and an artificial column,
    /// by their relation after [`Tableau::push_row`] turns negative
    /// right-hand sides around.
    pub(crate) fn reset(&mut self, n: usize, m: usize, num_slack: usize, num_art: usize) {
        self.n = n;
        self.art0 = n + num_slack;
        self.total = self.art0 + num_art;
        self.t.clear();
        self.t.resize(m * (self.total + 1), 0.0);
        self.basis.clear();
        self.basis.resize(m, 0);
        self.rows = 0;
        self.next_slack = n;
        self.next_art = self.art0;
    }

    /// Appends the row `a·x REL b`: `fill` writes `a` into the row's first
    /// `n` cells, which start at zero. A row with a negative `b` is negated.
    ///
    /// # Panics
    /// Panics if the row does not fit the counts given to
    /// [`Tableau::reset`].
    pub(crate) fn push_row(&mut self, rel: Relation, b: f64, fill: impl FnOnce(&mut [f64])) {
        let stride = self.total + 1;
        let ri = self.rows;
        assert!(ri < self.basis.len(), "more rows than the tableau holds");
        let row = &mut self.t[ri * stride..(ri + 1) * stride];
        fill(&mut row[..self.n]);
        let flip = b < 0.0;
        if flip {
            for v in &mut row[..self.n] {
                *v = -*v;
            }
        }
        row[self.total] = if flip { -b } else { b };
        let rel = rel.normalized(b);
        if matches!(rel, Relation::Le | Relation::Ge) {
            assert!(self.next_slack < self.art0, "more slack rows than declared");
            row[self.next_slack] = if rel == Relation::Le { 1.0 } else { -1.0 };
            self.basis[ri] = self.next_slack;
            self.next_slack += 1;
        }
        if matches!(rel, Relation::Ge | Relation::Eq) {
            assert!(
                self.next_art < self.total,
                "more artificial rows than declared"
            );
            row[self.next_art] = 1.0;
            self.basis[ri] = self.next_art;
            self.next_art += 1;
        }
        self.rows += 1;
    }

    /// Phase 1 alone, which maximizes minus the sum of the artificials: a
    /// feasibility check that fails exactly when the phase 1 of
    /// [`Tableau::solve`] would, with the same error.
    ///
    /// # Errors
    /// Returns [`Error::SolverFailed`] when the optimum leaves an
    /// artificial positive (the program is infeasible) or the loop fails.
    pub(crate) fn feasible(&mut self) -> Result<()> {
        assert_eq!(self.rows, self.basis.len(), "tableau rows missing");
        if self.art0 == self.total {
            return Ok(());
        }
        self.cost.clear();
        self.cost.resize(self.total, 0.0);
        self.cost[self.art0..].fill(-1.0);
        let v = run_simplex(&mut self.t, &mut self.basis, &self.cost, &mut self.costed)?;
        if v < -1e-7 {
            return Err(Error::SolverFailed(format!(
                "infeasible: phase-1 objective {v}"
            )));
        }
        Ok(())
    }

    /// Solves the loaded program under the objective `objective` writes
    /// into its `n` zeroed cells, and returns the optimum; the optimal
    /// point is then [`Tableau::x`].
    ///
    /// # Errors
    /// Returns [`Error::SolverFailed`] when the program is infeasible or
    /// unbounded.
    pub(crate) fn solve(&mut self, objective: impl FnOnce(&mut [f64])) -> Result<f64> {
        self.feasible()?;
        let stride = self.total + 1;
        // Pivot any artificial still basic (at zero) out if possible.
        for ri in 0..self.basis.len() {
            if self.basis[ri] >= self.art0 {
                let row = &self.t[ri * stride..];
                if let Some(col) = (0..self.art0).find(|&c| row[c].abs() > EPS) {
                    pivot(&mut self.t, &mut self.basis, ri, col);
                }
            }
        }

        // Phase 2: the objective, with the artificial columns frozen by a
        // cost that forbids their re-entry.
        self.cost.clear();
        self.cost.resize(self.total, 0.0);
        objective(&mut self.cost[..self.n]);
        self.cost[self.art0..].fill(f64::NEG_INFINITY);
        let value = run_simplex(&mut self.t, &mut self.basis, &self.cost, &mut self.costed)?;

        self.x.clear();
        self.x.resize(self.n, 0.0);
        for (ri, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                self.x[b] = self.t[ri * stride + self.total];
            }
        }
        Ok(value)
    }

    /// The optimal point of the last [`Tableau::solve`].
    pub(crate) fn x(&self) -> &[f64] {
        &self.x
    }
}

/// Runs simplex iterations for the given cost vector on the row-major
/// tableau `t` (one row per `basis` entry); returns the objective.
///
/// Each reduced cost `c_j - z_j` sums `z_j = Σ c_B · t[·][j]` over the
/// basic rows whose cost is nonzero and not `-∞` only. A zero-cost row
/// adds `±0.0` to a partial sum that starts at `+0.0` (and so is never
/// `-0.0`), which leaves the sum unchanged: on a finite tableau every z_j,
/// the entering column, the leaving row and every pivot are bit-identical
/// to summing over all `m` rows.
fn run_simplex(
    t: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    costed: &mut Vec<(usize, f64)>,
) -> Result<f64> {
    let total = cost.len();
    let stride = total + 1;
    for _ in 0..MAX_ITERS {
        costed.clear();
        costed.extend(basis.iter().enumerate().filter_map(|(ri, &b)| {
            let cb = cost[b];
            (cb != 0.0 && cb != f64::NEG_INFINITY).then_some((ri, cb))
        }));
        let mut entering = None;
        for j in 0..total {
            if cost[j] == f64::NEG_INFINITY {
                continue;
            }
            let mut zj = 0.0;
            for &(ri, cb) in costed.iter() {
                zj += cb * t[ri * stride + j];
            }
            let rc = cost[j] - zj;
            if rc > EPS {
                entering = Some(j); // Bland: first improving column
                break;
            }
        }
        let Some(col) = entering else {
            // optimal
            let mut obj = 0.0;
            for &(ri, cb) in costed.iter() {
                obj += cb * t[ri * stride + total];
            }
            return Ok(obj);
        };
        let Some(row) = leaving_row(t, basis, col) else {
            return Err(Error::SolverFailed("unbounded LP".into()));
        };
        pivot(t, basis, row, col);
    }
    Err(Error::SolverFailed("simplex iteration limit".into()))
}

/// The ratio test (Bland: smallest basis index tie-break), or `None` if
/// column `col` is unbounded.
fn leaving_row(t: &[f64], basis: &[usize], col: usize) -> Option<usize> {
    let stride = t.len() / basis.len();
    let total = stride - 1;
    let mut leave: Option<usize> = None;
    let mut best = f64::INFINITY;
    for (ri, row) in t.chunks_exact(stride).enumerate() {
        if row[col] > EPS {
            let ratio = row[total] / row[col];
            if ratio < best - EPS
                || (ratio < best + EPS && leave.map(|l| basis[ri] < basis[l]).unwrap_or(false))
            {
                best = ratio;
                leave = Some(ri);
            }
        }
    }
    leave
}

/// Pivots the row-major tableau `t` on `(row, col)`.
fn pivot(t: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let stride = t.len() / basis.len();
    let (above, rest) = t.split_at_mut(row * stride);
    let (prow, below) = rest.split_at_mut(stride);
    let p = prow[col];
    debug_assert!(p.abs() > EPS, "pivot on near-zero element");
    for v in prow.iter_mut() {
        *v /= p;
    }
    for r in above
        .chunks_exact_mut(stride)
        .chain(below.chunks_exact_mut(stride))
    {
        let f = r[col];
        if f.abs() > EPS {
            for (v, &pv) in r.iter_mut().zip(prow.iter()) {
                *v -= f * pv;
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// The solve before the flat core: a `Vec<Vec<f64>>` tableau built per
    /// call, priced over all `m` basic rows. [`LinearProgram::solve`] must
    /// match it bit for bit.
    fn solve_nested(lp: &LinearProgram) -> Result<Solution> {
        let n = lp.num_vars;
        let m = lp.rows.len();
        if m == 0 {
            return lp.solve();
        }
        let relation = |&(_, rel, b): &(Vec<f64>, Relation, f64)| rel.normalized(b);
        let num_slack = lp
            .rows
            .iter()
            .filter(|row| matches!(relation(row), Relation::Le | Relation::Ge))
            .count();
        let num_art = lp
            .rows
            .iter()
            .filter(|row| matches!(relation(row), Relation::Ge | Relation::Eq))
            .count();
        let total = n + num_slack + num_art;

        let mut t = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_i = 0;
        let mut art_i = 0;
        let mut artificials = Vec::new();
        for (ri, row) in lp.rows.iter().enumerate() {
            let (a, _, b) = row;
            let flip = *b < 0.0;
            for (cell, &v) in t[ri][..n].iter_mut().zip(a) {
                *cell = if flip { -v } else { v };
            }
            t[ri][total] = if flip { -*b } else { *b };
            match relation(row) {
                Relation::Le => {
                    t[ri][n + slack_i] = 1.0;
                    basis[ri] = n + slack_i;
                    slack_i += 1;
                }
                Relation::Ge => {
                    t[ri][n + slack_i] = -1.0;
                    slack_i += 1;
                    let col = n + num_slack + art_i;
                    t[ri][col] = 1.0;
                    basis[ri] = col;
                    artificials.push(col);
                    art_i += 1;
                }
                Relation::Eq => {
                    let col = n + num_slack + art_i;
                    t[ri][col] = 1.0;
                    basis[ri] = col;
                    artificials.push(col);
                    art_i += 1;
                }
            }
        }

        if num_art > 0 {
            let mut cost = vec![0.0f64; total];
            for &c in &artificials {
                cost[c] = -1.0;
            }
            let v = run_nested(&mut t, &mut basis, &cost, total)?;
            if v < -1e-7 {
                return Err(Error::SolverFailed(format!(
                    "infeasible: phase-1 objective {v}"
                )));
            }
            for ri in 0..m {
                if artificials.contains(&basis[ri]) {
                    if let Some(col) = (0..n + num_slack).find(|&c| t[ri][c].abs() > EPS) {
                        pivot_nested(&mut t, &mut basis, ri, col, total);
                    }
                }
            }
        }

        let mut cost = vec![0.0f64; total];
        cost[..n].copy_from_slice(&lp.objective);
        for &c in &artificials {
            cost[c] = f64::NEG_INFINITY;
        }
        let value = run_nested(&mut t, &mut basis, &cost, total)?;
        let mut x = vec![0.0f64; n];
        for ri in 0..m {
            if basis[ri] < n {
                x[basis[ri]] = t[ri][total];
            }
        }
        Ok(Solution { x, value })
    }

    /// The iteration loop of [`solve_nested`]: every z_j sums over all `m`
    /// basic rows.
    fn run_nested(
        t: &mut [Vec<f64>],
        basis: &mut [usize],
        cost: &[f64],
        total: usize,
    ) -> Result<f64> {
        let m = t.len();
        for _ in 0..MAX_ITERS {
            let mut entering = None;
            for j in 0..total {
                if cost[j] == f64::NEG_INFINITY {
                    continue;
                }
                let mut zj = 0.0;
                for ri in 0..m {
                    let cb = cost[basis[ri]];
                    if cb == f64::NEG_INFINITY {
                        continue;
                    }
                    zj += cb * t[ri][j];
                }
                if cost[j] - zj > EPS {
                    entering = Some(j);
                    break;
                }
            }
            let Some(col) = entering else {
                let mut obj = 0.0;
                for ri in 0..m {
                    let cb = cost[basis[ri]];
                    if cb != f64::NEG_INFINITY {
                        obj += cb * t[ri][total];
                    }
                }
                return Ok(obj);
            };
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for ri in 0..m {
                if t[ri][col] > EPS {
                    let ratio = t[ri][total] / t[ri][col];
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.map(|l| basis[ri] < basis[l]).unwrap_or(false))
                    {
                        best = ratio;
                        leave = Some(ri);
                    }
                }
            }
            let Some(row) = leave else {
                return Err(Error::SolverFailed("unbounded LP".into()));
            };
            pivot_nested(t, basis, row, col, total);
        }
        Err(Error::SolverFailed("simplex iteration limit".into()))
    }

    fn pivot_nested(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
        let p = t[row][col];
        for v in t[row].iter_mut() {
            *v /= p;
        }
        for ri in 0..t.len() {
            if ri != row && t[ri][col].abs() > EPS {
                let f = t[ri][col];
                for j in 0..=total {
                    t[ri][j] -= f * t[row][j];
                }
            }
        }
        basis[row] = col;
    }

    /// The inputs of one orchestration problem: attainments, row and column
    /// capacities and, optionally, per-pair link costs with a row budget.
    pub(crate) struct TransportDraw {
        pub(crate) d: Vec<Vec<f64>>,
        pub(crate) row_cap: Vec<f64>,
        pub(crate) col_cap: Vec<f64>,
        pub(crate) link: Option<(Vec<Vec<f64>>, f64)>,
    }

    /// A random orchestration problem in the shape `transport` solves. On
    /// `tied` draws attainments come from four levels, so ties are common.
    /// Most draws carry link budgets at one of the two headroom tiers; a
    /// row whose capacity and link budget together fall short of its share
    /// of the mass makes the program infeasible, as the tightest link tier
    /// can.
    pub(crate) fn random_transport_draw<R: rand::Rng>(rng: &mut R, tied: bool) -> TransportDraw {
        const LEVELS: [f64; 4] = [0.0, 0.5, 0.9, 1.0];
        let m = rng.gen_range(1..=4usize);
        let n = rng.gen_range(1..=4usize);
        let draw = |rng: &mut R| {
            if tied {
                LEVELS[rng.gen_range(0..LEVELS.len())]
            } else {
                rng.gen_range(0.0..1.0)
            }
        };
        let d: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| draw(rng)).collect())
            .collect();
        let row_cap: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
        let col_cap: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
        let link = rng.gen_bool(0.75).then(|| {
            let kv: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.gen_range(0.01..1.5)).collect())
                .collect();
            let headroom = [0.60, 0.92][rng.gen_range(0..2usize)];
            (kv, headroom / rng.gen_range(0.5..5.0))
        });
        TransportDraw {
            d,
            row_cap,
            col_cap,
            link,
        }
    }

    impl TransportDraw {
        /// The draw as a [`LinearProgram`]: one equality on the routed mass
        /// (the least of 1, the capacity sums and the aggregate link
        /// capacity), row and column capacities, then the link budgets.
        fn to_lp(&self) -> LinearProgram {
            let (m, n) = (self.d.len(), self.d[0].len());
            let total_link: f64 = self.link.as_ref().map_or(f64::INFINITY, |(kv, budget)| {
                kv.iter()
                    .map(|row| budget / row.iter().cloned().fold(f64::INFINITY, f64::min))
                    .sum()
            });
            let mass = 1.0f64
                .min(self.row_cap.iter().sum())
                .min(self.col_cap.iter().sum())
                .min(total_link);
            let nv = m * n;
            let mut lp = LinearProgram::new(nv);
            lp.set_objective(self.d.concat());
            lp.add_constraint(vec![1.0; nv], Relation::Eq, mass);
            for (i, &cap) in self.row_cap.iter().enumerate() {
                let a = (0..nv).map(|v| f64::from(u8::from(v / n == i))).collect();
                lp.add_constraint(a, Relation::Le, cap);
            }
            for (j, &cap) in self.col_cap.iter().enumerate() {
                let a = (0..nv).map(|v| f64::from(u8::from(v % n == j))).collect();
                lp.add_constraint(a, Relation::Le, cap);
            }
            if let Some((kv, budget)) = &self.link {
                for (i, row) in kv.iter().enumerate() {
                    let a = (0..nv)
                        .map(|v| if v / n == i { row[v % n] } else { 0.0 })
                        .collect();
                    lp.add_constraint(a, Relation::Le, *budget);
                }
            }
            lp
        }
    }

    /// The flat core, whose buffers every draw reuses at a new size,
    /// against the nested-vector reference, which also prices over every
    /// basic row, on 2,000 seeded transport programs: `x`, the value and
    /// the error text agree bit for bit. On every draw the phase-1-only
    /// check fails exactly when the full solve does, with the same message,
    /// so skipping phase 2 never hides an error.
    #[test]
    fn costed_row_pricing_matches_full_row_pricing() {
        let mut rng = ts_common::seeded_rng(0x5EED_0051);
        let (mut solved, mut failed) = (0, 0);
        for case in 0..2_000 {
            let lp = random_transport_draw(&mut rng, case % 2 == 0).to_lp();
            let got = lp.solve();
            match (&got, solve_nested(&lp)) {
                (Ok(got), Ok(want)) => {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.x), bits(&want.x), "case {case}: x");
                    assert_eq!(got.value.to_bits(), want.value.to_bits(), "case {case}");
                    solved += 1;
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got.to_string(), want.to_string(), "case {case}");
                    failed += 1;
                }
                (got, want) => panic!("case {case}: {got:?} vs reference {want:?}"),
            }
            let phase1 = with_tableau(|tab| {
                lp.load(tab);
                tab.feasible()
            });
            assert_eq!(
                phase1.map_err(|e| e.to_string()),
                got.map(|_| ()).map_err(|e| e.to_string()),
                "case {case}: phase 1 alone"
            );
        }
        // Both outcomes are exercised: the sweep holds infeasible link tiers.
        assert!(
            solved > 1_000 && failed > 100,
            "{solved} solved, {failed} failed"
        );
    }

    #[test]
    fn textbook_le_problem() {
        // max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6)
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![3.0, 5.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.value, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraint() {
        // max x+y st x+y = 1, x <= 0.3 -> 1.0 with x<=0.3
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 1.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 0.3);
        let s = lp.solve().unwrap();
        assert_close(s.value, 1.0);
        assert!(s.x[0] <= 0.3 + 1e-9);
    }

    #[test]
    fn ge_constraints() {
        // min x+2y st x+y>=3, x<=1  == max -(x+2y)
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![-1.0, -2.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Ge, 3.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.value, -5.0); // x=1, y=2
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Ge, 5.0);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(Error::SolverFailed(_))));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 0.0]);
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(Error::SolverFailed(_))));
    }

    #[test]
    fn negative_rhs_normalized() {
        // x >= -1 written as -x <= 1; max -x st -x <= 1 ... use: max -x, x>=0
        // with constraint -x >= -2  (i.e. x <= 2)
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![-1.0], Relation::Ge, -2.0);
        let s = lp.solve().unwrap();
        assert_close(s.value, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 1.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.value, 1.0);
    }

    #[test]
    fn no_constraints_zero_objective() {
        let lp = LinearProgram::new(3);
        let s = lp.solve().unwrap();
        assert_eq!(s.x, vec![0.0; 3]);
    }

    #[test]
    fn matches_brute_force_on_grid() {
        // max 2x + 3y - z with random-ish constraints; brute force on a grid.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![2.0, 3.0, -1.0]);
        let cons: Vec<(Vec<f64>, Relation, f64)> = vec![
            (vec![1.0, 2.0, 1.0], Relation::Le, 10.0),
            (vec![3.0, 1.0, 0.0], Relation::Le, 12.0),
            (vec![0.0, 1.0, 4.0], Relation::Le, 8.0),
        ];
        for (a, r, b) in &cons {
            lp.add_constraint(a.clone(), *r, *b);
        }
        let s = lp.solve().unwrap();
        // grid brute force
        let mut best = f64::NEG_INFINITY;
        let step = 0.05;
        let mut x = 0.0;
        while x <= 4.0 {
            let mut y = 0.0;
            while y <= 8.0 {
                // z=0 is always optimal here (negative coefficient)
                let feasible = cons
                    .iter()
                    .all(|(a, _, b)| a[0] * x + a[1] * y <= *b + 1e-12);
                if feasible {
                    best = best.max(2.0 * x + 3.0 * y);
                }
                y += step;
            }
            x += step;
        }
        assert!(
            (s.value - best).abs() < 0.2,
            "simplex {} vs grid {}",
            s.value,
            best
        );
        assert!(
            s.value >= best - 1e-9,
            "simplex must not be worse than grid"
        );
    }
}
