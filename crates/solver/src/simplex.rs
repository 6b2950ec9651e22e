//! Dense two-phase primal simplex.
//!
//! Solves `max c·x` subject to linear constraints (`≤`, `≥`, `=`) and
//! `x ≥ 0`. Designed for the small, dense programs the scheduler produces
//! (tens of variables); uses Bland's rule to guarantee termination.

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
        self.solve_with(run_simplex)
    }

    /// [`LinearProgram::solve`] with the iteration loop `run` (the
    /// production loop, or a test reference to check it against).
    fn solve_with(&self, run: RunSimplex) -> Result<Solution> {
        // --- Build the standard-form tableau ---------------------------------
        // Variables: original n, then one slack/surplus per inequality, then
        // one artificial per (>=, =) row. RHS normalized non-negative.
        let n = self.num_vars;
        let m = self.rows.len();
        if m == 0 {
            // Unbounded unless the objective is non-positive everywhere.
            if self.objective.iter().all(|&c| c <= EPS) {
                return Ok(Solution {
                    x: vec![0.0; n],
                    value: 0.0,
                });
            }
            return Err(Error::SolverFailed("unbounded: no constraints".into()));
        }

        // A row with a negative RHS is negated, which turns its inequality
        // around.
        let relation = |&(_, rel, b): &(Vec<f64>, Relation, f64)| match rel {
            Relation::Le if b < 0.0 => Relation::Ge,
            Relation::Ge if b < 0.0 => Relation::Le,
            _ => rel,
        };
        let num_slack = self
            .rows
            .iter()
            .filter(|row| matches!(relation(row), Relation::Le | Relation::Ge))
            .count();
        let num_art = self
            .rows
            .iter()
            .filter(|row| matches!(relation(row), Relation::Ge | Relation::Eq))
            .count();
        let total = n + num_slack + num_art;

        // tableau: m rows x (total + 1); last column is RHS.
        let mut t = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_i = 0;
        let mut art_i = 0;
        let mut artificials = Vec::new();
        for (ri, row) in self.rows.iter().enumerate() {
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

        // --- Phase 1: minimize sum of artificials ----------------------------
        if num_art > 0 {
            let mut cost = vec![0.0f64; total];
            for &c in &artificials {
                cost[c] = -1.0; // maximize -(sum of artificials)
            }
            let v = run(&mut t, &mut basis, &cost, total)?;
            if v < -1e-7 {
                return Err(Error::SolverFailed(format!(
                    "infeasible: phase-1 objective {v}"
                )));
            }
            // Pivot any artificial still basic (at zero) out if possible.
            for ri in 0..m {
                if artificials.contains(&basis[ri]) {
                    if let Some(col) = (0..n + num_slack).find(|&c| t[ri][c].abs() > EPS) {
                        pivot(&mut t, &mut basis, ri, col, total);
                    }
                }
            }
        }

        // --- Phase 2: original objective (artificial columns frozen) ---------
        let mut cost = vec![0.0f64; total];
        cost[..n].copy_from_slice(&self.objective);
        // Forbid re-entry of artificials by giving them a strong penalty.
        for &c in &artificials {
            cost[c] = f64::NEG_INFINITY;
        }
        let value = run(&mut t, &mut basis, &cost, total)?;

        let mut x = vec![0.0f64; n];
        for ri in 0..m {
            if basis[ri] < n {
                x[basis[ri]] = t[ri][total];
            }
        }
        Ok(Solution { x, value })
    }
}

/// A simplex iteration loop: pivots `t` to optimality under `cost` and
/// returns the objective.
type RunSimplex = fn(&mut [Vec<f64>], &mut [usize], &[f64], usize) -> Result<f64>;

/// Runs simplex iterations for the given cost vector; returns the objective.
///
/// Each reduced cost `c_j - z_j` sums `z_j = Σ c_B · t[·][j]` over the
/// basic rows whose cost is nonzero and not `-∞` only. A zero-cost row
/// adds `±0.0` to a partial sum that starts at `+0.0` (and so is never
/// `-0.0`), which leaves the sum unchanged: on a finite tableau every z_j,
/// the entering column, the leaving row and every pivot are bit-identical
/// to summing over all `m` rows.
fn run_simplex(t: &mut [Vec<f64>], basis: &mut [usize], cost: &[f64], total: usize) -> Result<f64> {
    let m = t.len();
    let mut costed: Vec<(usize, f64)> = Vec::with_capacity(m);
    for _ in 0..MAX_ITERS {
        costed.clear();
        costed.extend((0..m).filter_map(|ri| {
            let cb = cost[basis[ri]];
            (cb != 0.0 && cb != f64::NEG_INFINITY).then_some((ri, cb))
        }));
        let mut entering = None;
        for j in 0..total {
            if cost[j] == f64::NEG_INFINITY {
                continue;
            }
            let mut zj = 0.0;
            for &(ri, cb) in &costed {
                zj += cb * t[ri][j];
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
            for &(ri, cb) in &costed {
                obj += cb * t[ri][total];
            }
            return Ok(obj);
        };
        let Some(row) = leaving_row(t, basis, col, total) else {
            return Err(Error::SolverFailed("unbounded LP".into()));
        };
        pivot(t, basis, row, col, total);
    }
    Err(Error::SolverFailed("simplex iteration limit".into()))
}

/// The ratio test (Bland: smallest basis index tie-break), or `None` if
/// column `col` is unbounded.
fn leaving_row(t: &[Vec<f64>], basis: &[usize], col: usize, total: usize) -> Option<usize> {
    let mut leave: Option<usize> = None;
    let mut best = f64::INFINITY;
    for ri in 0..t.len() {
        if t[ri][col] > EPS {
            let ratio = t[ri][total] / t[ri][col];
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

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS, "pivot on near-zero element");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// The pricing loop before it skipped zero-cost rows: every z_j sums
    /// over all `m` basic rows. [`run_simplex`] must match it bit for bit.
    fn run_simplex_all_rows(
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
            let Some(row) = leaving_row(t, basis, col, total) else {
                return Err(Error::SolverFailed("unbounded LP".into()));
            };
            pivot(t, basis, row, col, total);
        }
        Err(Error::SolverFailed("simplex iteration limit".into()))
    }

    /// A random orchestration LP in the shape `transport` builds: one
    /// equality on the routed mass, row and column capacities and, on most
    /// draws, per-row link budgets. The mass follows the same rule (the
    /// least of 1, the capacity sums and the aggregate link capacity), so
    /// a row whose capacity and link budget together fall short of its
    /// share makes the program infeasible, as the tightest link tier can.
    fn random_transport_lp<R: rand::Rng>(rng: &mut R, tied: bool) -> LinearProgram {
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
        let total_link: f64 = link.as_ref().map_or(f64::INFINITY, |(kv, budget)| {
            kv.iter()
                .map(|row| budget / row.iter().cloned().fold(f64::INFINITY, f64::min))
                .sum()
        });
        let mass = 1.0f64
            .min(row_cap.iter().sum())
            .min(col_cap.iter().sum())
            .min(total_link);

        let nv = m * n;
        let mut lp = LinearProgram::new(nv);
        lp.set_objective(d.concat());
        lp.add_constraint(vec![1.0; nv], Relation::Eq, mass);
        for (i, &cap) in row_cap.iter().enumerate() {
            let a = (0..nv).map(|v| f64::from(u8::from(v / n == i))).collect();
            lp.add_constraint(a, Relation::Le, cap);
        }
        for (j, &cap) in col_cap.iter().enumerate() {
            let a = (0..nv).map(|v| f64::from(u8::from(v % n == j))).collect();
            lp.add_constraint(a, Relation::Le, cap);
        }
        if let Some((kv, budget)) = link {
            for (i, row) in kv.iter().enumerate() {
                let a = (0..nv)
                    .map(|v| if v / n == i { row[v % n] } else { 0.0 })
                    .collect();
                lp.add_constraint(a, Relation::Le, budget);
            }
        }
        lp
    }

    #[test]
    fn costed_row_pricing_matches_full_row_pricing() {
        let mut rng = ts_common::seeded_rng(0x5EED_0051);
        let (mut solved, mut failed) = (0, 0);
        for case in 0..2_000 {
            let lp = random_transport_lp(&mut rng, case % 2 == 0);
            match (lp.solve(), lp.solve_with(run_simplex_all_rows)) {
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
