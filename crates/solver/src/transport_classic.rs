//! The classic balanced transportation algorithm (Northwest-Corner + MODI).
//!
//! The orchestration LP in [`crate::transport`] goes through the general
//! simplex; this module implements the dedicated textbook method the TSTP
//! literature (cited by the paper's §3.3) uses: a Northwest-Corner initial
//! basic feasible solution improved by the MODI (u–v) method with
//! stepping-stone pivots. It serves as an independent implementation to
//! cross-check the LP on balanced instances — two different algorithms
//! agreeing is the strongest correctness evidence we can generate offline.

use ts_common::{Error, Result};

/// A balanced transportation solution.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportSolution {
    /// Shipment matrix `x[i][j] ≥ 0` with row sums = supply, column sums =
    /// demand.
    pub shipments: Vec<Vec<f64>>,
    /// Total cost `Σ c_ij · x_ij`.
    pub cost: f64,
}

const EPS: f64 = 1e-9;
const MAX_PIVOTS: usize = 10_000;

/// Solves the **balanced minimization** transportation problem:
/// `min Σ c_ij·x_ij` s.t. `Σ_j x_ij = supply_i`, `Σ_i x_ij = demand_j`.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] for shape mismatches, negative values or
/// an unbalanced instance, and [`Error::SolverFailed`] if pivoting fails to
/// terminate (which would indicate a bug, not an input property).
pub fn solve_balanced(
    costs: &[Vec<f64>],
    supply: &[f64],
    demand: &[f64],
) -> Result<TransportSolution> {
    let m = supply.len();
    let n = demand.len();
    if m == 0 || n == 0 || costs.len() != m || costs.iter().any(|r| r.len() != n) {
        return Err(Error::InvalidConfig("transportation shape mismatch".into()));
    }
    if supply
        .iter()
        .chain(demand)
        .any(|&v| !v.is_finite() || v < 0.0)
    {
        return Err(Error::InvalidConfig(
            "negative or non-finite quantities".into(),
        ));
    }
    let total_s: f64 = supply.iter().sum();
    let total_d: f64 = demand.iter().sum();
    if (total_s - total_d).abs() > 1e-6 * total_s.max(total_d).max(1.0) {
        return Err(Error::InvalidConfig(format!(
            "unbalanced instance: supply {total_s} vs demand {total_d}"
        )));
    }

    // --- Northwest-Corner initial basic feasible solution -----------------
    let mut x = vec![vec![0.0f64; n]; m];
    let mut basis = vec![vec![false; n]; m];
    let mut s = supply.to_vec();
    let mut d = demand.to_vec();
    let (mut i, mut j) = (0usize, 0usize);
    let mut basic_count = 0usize;
    while i < m && j < n {
        let q = s[i].min(d[j]);
        x[i][j] = q;
        basis[i][j] = true;
        basic_count += 1;
        s[i] -= q;
        d[j] -= q;
        if i == m - 1 && j == n - 1 {
            break;
        }
        // Tie-break: advance only one index to keep exactly m+n-1 basics.
        if s[i] <= EPS && i < m - 1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    // Degeneracy: ensure exactly m+n-1 basic cells by adding zero basics.
    'outer: while basic_count < m + n - 1 {
        for bi in 0..m {
            for bj in 0..n {
                if !basis[bi][bj] && !creates_cycle(&basis, bi, bj, m, n) {
                    basis[bi][bj] = true;
                    basic_count += 1;
                    continue 'outer;
                }
            }
        }
        break;
    }

    // --- MODI improvement loop --------------------------------------------
    for _ in 0..MAX_PIVOTS {
        let (u, v) = potentials(costs, &basis, m, n)?;
        // most negative reduced cost
        let mut enter: Option<(usize, usize, f64)> = None;
        for ei in 0..m {
            for ej in 0..n {
                if !basis[ei][ej] {
                    let rc = costs[ei][ej] - u[ei] - v[ej];
                    if rc < -1e-9 && enter.map(|(_, _, b)| rc < b).unwrap_or(true) {
                        enter = Some((ei, ej, rc));
                    }
                }
            }
        }
        let Some((ei, ej, _)) = enter else {
            // optimal
            let cost = x
                .iter()
                .zip(costs)
                .map(|(xr, cr)| xr.iter().zip(cr).map(|(a, b)| a * b).sum::<f64>())
                .sum();
            return Ok(TransportSolution { shipments: x, cost });
        };
        // find the unique cycle through (ei, ej) alternating rows/columns
        let cycle = find_cycle(&basis, ei, ej, m, n)
            .ok_or_else(|| Error::SolverFailed("no stepping-stone cycle".into()))?;
        // minus positions are the odd indices of the cycle
        let theta = cycle
            .iter()
            .skip(1)
            .step_by(2)
            .map(|&(ci, cj)| x[ci][cj])
            .fold(f64::INFINITY, f64::min);
        let mut leave: Option<(usize, usize)> = None;
        for (k, &(ci, cj)) in cycle.iter().enumerate() {
            if k == 0 {
                x[ci][cj] += theta;
            } else if k % 2 == 1 {
                x[ci][cj] -= theta;
                if x[ci][cj] <= EPS && leave.is_none() {
                    leave = Some((ci, cj));
                }
            } else {
                x[ci][cj] += theta;
            }
        }
        basis[ei][ej] = true;
        let (li, lj) = leave.ok_or_else(|| Error::SolverFailed("no leaving cell".into()))?;
        x[li][lj] = 0.0;
        basis[li][lj] = false;
    }
    Err(Error::SolverFailed("MODI pivot limit exceeded".into()))
}

/// Solves `u_i + v_j = c_ij` over the basis tree (`u[0] = 0`).
fn potentials(
    costs: &[Vec<f64>],
    basis: &[Vec<bool>],
    m: usize,
    n: usize,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut u = vec![f64::NAN; m];
    let mut v = vec![f64::NAN; n];
    u[0] = 0.0;
    // iterate to propagate (basis is a tree: m+n-1 edges)
    for _ in 0..(m + n) {
        let mut progressed = false;
        for i in 0..m {
            for j in 0..n {
                if basis[i][j] {
                    match (u[i].is_nan(), v[j].is_nan()) {
                        (false, true) => {
                            v[j] = costs[i][j] - u[i];
                            progressed = true;
                        }
                        (true, false) => {
                            u[i] = costs[i][j] - v[j];
                            progressed = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if u.iter().any(|x| x.is_nan()) || v.iter().any(|x| x.is_nan()) {
        return Err(Error::SolverFailed("disconnected basis tree".into()));
    }
    Ok((u, v))
}

/// Whether adding `(i, j)` to the basis would close a cycle (used to add
/// degenerate basics safely: the basis must stay a forest).
fn creates_cycle(basis: &[Vec<bool>], i: usize, j: usize, m: usize, n: usize) -> bool {
    let mut b: Vec<Vec<bool>> = basis.to_vec();
    b[i][j] = true;
    find_cycle(&b, i, j, m, n).is_some()
}

/// Finds the unique alternating row/column cycle starting and ending at
/// `(si, sj)` using only basis cells (plus the start cell itself). Returns
/// the cycle as a list of cells beginning with the start.
fn find_cycle(
    basis: &[Vec<bool>],
    si: usize,
    sj: usize,
    m: usize,
    n: usize,
) -> Option<Vec<(usize, usize)>> {
    // DFS alternating: from a cell we either move within the row (pick
    // another basic cell in the same row) or within the column, strictly
    // alternating the move kind.
    fn dfs(
        basis: &[Vec<bool>],
        start: (usize, usize),
        cur: (usize, usize),
        row_move: bool,
        path: &mut Vec<(usize, usize)>,
        m: usize,
        n: usize,
    ) -> bool {
        if row_move {
            for j in 0..n {
                if j != cur.1 && (basis[cur.0][j] || (cur.0, j) == start) {
                    if (cur.0, j) == start && path.len() >= 3 {
                        return true;
                    }
                    if (cur.0, j) != start && !path.contains(&(cur.0, j)) {
                        path.push((cur.0, j));
                        if dfs(basis, start, (cur.0, j), false, path, m, n) {
                            return true;
                        }
                        path.pop();
                    }
                }
            }
        } else {
            for i in 0..m {
                if i != cur.0 && (basis[i][cur.1] || (i, cur.1) == start) {
                    if (i, cur.1) == start && path.len() >= 3 {
                        return true;
                    }
                    if (i, cur.1) != start && !path.contains(&(i, cur.1)) {
                        path.push((i, cur.1));
                        if dfs(basis, start, (i, cur.1), true, path, m, n) {
                            return true;
                        }
                        path.pop();
                    }
                }
            }
        }
        false
    }
    let mut path = vec![(si, sj)];
    if dfs(basis, (si, sj), (si, sj), true, &mut path, m, n) {
        return Some(path);
    }
    let mut path = vec![(si, sj)];
    if dfs(basis, (si, sj), (si, sj), false, &mut path, m, n) {
        return Some(path);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{LinearProgram, Relation};

    fn check_feasible(sol: &TransportSolution, supply: &[f64], demand: &[f64]) {
        for (i, s) in supply.iter().enumerate() {
            let row: f64 = sol.shipments[i].iter().sum();
            assert!((row - s).abs() < 1e-6, "row {i}: {row} vs {s}");
        }
        for (j, d) in demand.iter().enumerate() {
            let col: f64 = sol.shipments.iter().map(|r| r[j]).sum();
            assert!((col - d).abs() < 1e-6, "col {j}: {col} vs {d}");
        }
        assert!(sol.shipments.iter().flatten().all(|&v| v >= -1e-9));
    }

    fn simplex_cost(costs: &[Vec<f64>], supply: &[f64], demand: &[f64]) -> f64 {
        let (m, n) = (supply.len(), demand.len());
        let mut lp = LinearProgram::new(m * n);
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = -costs[i][j]; // maximize -cost
            }
        }
        lp.set_objective(c);
        for i in 0..m {
            let mut a = vec![0.0; m * n];
            for j in 0..n {
                a[i * n + j] = 1.0;
            }
            lp.add_constraint(a, Relation::Eq, supply[i]);
        }
        for j in 0..n {
            let mut a = vec![0.0; m * n];
            for i in 0..m {
                a[i * n + j] = 1.0;
            }
            lp.add_constraint(a, Relation::Eq, demand[j]);
        }
        -lp.solve().unwrap().value
    }

    #[test]
    fn textbook_example() {
        // Classic 3x4 instance with known optimum.
        let costs = vec![
            vec![19.0, 30.0, 50.0, 10.0],
            vec![70.0, 30.0, 40.0, 60.0],
            vec![40.0, 8.0, 70.0, 20.0],
        ];
        let supply = [7.0, 9.0, 18.0];
        let demand = [5.0, 8.0, 7.0, 14.0];
        let sol = solve_balanced(&costs, &supply, &demand).unwrap();
        check_feasible(&sol, &supply, &demand);
        assert!((sol.cost - 743.0).abs() < 1e-6, "cost {}", sol.cost);
    }

    #[test]
    fn matches_simplex_on_random_instances() {
        use rand::Rng;
        for seed in 0..12u64 {
            let mut rng = ts_common::seeded_rng(seed);
            let m = rng.gen_range(2..5usize);
            let n = rng.gen_range(2..5usize);
            let costs: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| rng.gen_range(1.0..50.0f64).round())
                        .collect()
                })
                .collect();
            let supply: Vec<f64> = (0..m)
                .map(|_| rng.gen_range(1.0..20.0f64).round())
                .collect();
            let total: f64 = supply.iter().sum();
            // random demand split of the same total
            let mut demand: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..20.0f64)).collect();
            let dsum: f64 = demand.iter().sum();
            for d in demand.iter_mut() {
                *d = (*d / dsum * total * 1e6).round() / 1e6;
            }
            let dsum2: f64 = demand.iter().sum();
            demand[0] += total - dsum2; // exact balance
            let sol = solve_balanced(&costs, &supply, &demand).unwrap();
            check_feasible(&sol, &supply, &demand);
            let lp_cost = simplex_cost(&costs, &supply, &demand);
            assert!(
                (sol.cost - lp_cost).abs() < 1e-4,
                "seed {seed}: MODI {} vs simplex {}",
                sol.cost,
                lp_cost
            );
        }
    }

    #[test]
    fn degenerate_instance_terminates() {
        // supplies exactly matching single demands → degeneracy in NW corner
        let costs = vec![vec![4.0, 8.0], vec![9.0, 3.0]];
        let supply = [5.0, 5.0];
        let demand = [5.0, 5.0];
        let sol = solve_balanced(&costs, &supply, &demand).unwrap();
        check_feasible(&sol, &supply, &demand);
        assert!((sol.cost - 35.0).abs() < 1e-9);
    }

    #[test]
    fn single_cell() {
        let sol = solve_balanced(&[vec![7.0]], &[3.0], &[3.0]).unwrap();
        assert_eq!(sol.shipments[0][0], 3.0);
        assert!((sol.cost - 21.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_unbalanced_and_malformed() {
        assert!(solve_balanced(&[vec![1.0]], &[2.0], &[3.0]).is_err());
        assert!(solve_balanced(&[], &[], &[]).is_err());
        assert!(solve_balanced(&[vec![1.0, 2.0]], &[1.0], &[0.5]).is_err());
        assert!(solve_balanced(&[vec![1.0]], &[-1.0], &[-1.0]).is_err());
    }
}
