//! Progressive-filling max-min fair bandwidth allocation.
//!
//! Given a set of capacitated links and a set of flows, each crossing a
//! subset of the links, the max-min fair allocation is the unique rate
//! vector in which no flow's rate can be increased without decreasing the
//! rate of a flow that is no better off. Progressive filling computes it by
//! growing all rates together and freezing, at each step, every flow
//! crossing the *most contended* link (the one with the smallest fair
//! share of remaining capacity).

/// Computes the max-min fair rate for each flow.
///
/// `capacity[l]` is link `l`'s capacity in bytes/s; `flows[f]` lists the
/// link indices flow `f` crosses (duplicates are ignored — a flow crossing
/// a link "twice" still only gets one share of it). Links with infinite
/// capacity never constrain anyone; a flow crossing only such links (or no
/// links at all, e.g. a loopback transfer) is unconstrained and gets
/// `f64::INFINITY`.
///
/// Deterministic: links are scanned in index order and ties broken toward
/// the lowest index, so the result depends only on the inputs — never on
/// iteration order of some hash container. Reordering the `flows` slice
/// permutes the output the same way and changes no rate.
///
/// # Panics
/// Panics if any flow references a link index out of range, or any finite
/// capacity is not positive.
pub fn max_min_allocate(capacity: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
    for (l, &c) in capacity.iter().enumerate() {
        assert!(
            c > 0.0,
            "link {l} has non-positive capacity {c}; use f64::INFINITY for free links"
        );
    }
    for path in flows {
        for &l in path {
            assert!(l < capacity.len(), "flow references unknown link {l}");
        }
    }
    let mut rate = vec![f64::INFINITY; flows.len()];
    let mut remaining = capacity.to_vec();
    let mut frozen = vec![false; flows.len()];
    // A flow counts once per link even if its path lists the link twice.
    let crosses = |f: usize, l: usize| flows[f].contains(&l);
    loop {
        // Fair share of every still-constraining link.
        let mut bottleneck: Option<(usize, f64)> = None;
        for l in 0..capacity.len() {
            if remaining[l].is_infinite() {
                continue;
            }
            let users = (0..flows.len())
                .filter(|&f| !frozen[f] && crosses(f, l))
                .count();
            if users == 0 {
                continue;
            }
            let share = remaining[l] / users as f64;
            match bottleneck {
                Some((_, best)) if best <= share => {}
                _ => bottleneck = Some((l, share)),
            }
        }
        let Some((bl, fair)) = bottleneck else {
            // Every unfrozen flow crosses only unconstrained links.
            break;
        };
        // Freeze the bottleneck link's flows at the fair share and charge
        // their rate against every other link they cross.
        for f in 0..flows.len() {
            if frozen[f] || !crosses(f, bl) {
                continue;
            }
            rate[f] = fair;
            frozen[f] = true;
            let mut seen = Vec::new();
            for &l in &flows[f] {
                if l != bl && !remaining[l].is_infinite() && !seen.contains(&l) {
                    remaining[l] = (remaining[l] - fair).max(0.0);
                    seen.push(l);
                }
            }
        }
        remaining[bl] = 0.0;
        if frozen.iter().all(|&f| f) {
            break;
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= EPS * b.abs().max(1.0)
    }

    #[test]
    fn single_bottleneck_splits_evenly() {
        // Two flows through one 10 B/s link: 5 each.
        let rates = max_min_allocate(&[10.0], &[vec![0], vec![0]]);
        assert!(close(rates[0], 5.0), "{rates:?}");
        assert!(close(rates[1], 5.0), "{rates:?}");
    }

    #[test]
    fn shared_uplink_with_wide_downlinks() {
        // Links: 0 = shared uplink (10), 1 and 2 = wide downlinks (100).
        // Both flows bottleneck on the uplink; the downlinks never bind.
        let caps = [10.0, 100.0, 100.0];
        let rates = max_min_allocate(&caps, &[vec![0, 1], vec![0, 2]]);
        assert!(close(rates[0], 5.0), "{rates:?}");
        assert!(close(rates[1], 5.0), "{rates:?}");
    }

    #[test]
    fn asymmetric_up_and_down_caps() {
        // Flow A crosses uplink (10) then a narrow downlink (4); flow B
        // only the uplink. A is pinned to 4 by its downlink; B takes the
        // uplink's remainder, 6.
        let caps = [10.0, 4.0];
        let rates = max_min_allocate(&caps, &[vec![0, 1], vec![0]]);
        assert!(close(rates[0], 4.0), "{rates:?}");
        assert!(close(rates[1], 6.0), "{rates:?}");
    }

    #[test]
    fn textbook_three_flow_example() {
        // The classic max-min example: caps [10, 4]; f0 = both links,
        // f1 = link 0 only, f2 = link 1 only. Link 1's fair share (2) is
        // the first bottleneck: f0 = f2 = 2; link 0 then has 8 left for f1.
        let rates = max_min_allocate(&[10.0, 4.0], &[vec![0, 1], vec![0], vec![1]]);
        assert!(close(rates[0], 2.0), "{rates:?}");
        assert!(close(rates[1], 8.0), "{rates:?}");
        assert!(close(rates[2], 2.0), "{rates:?}");
    }

    #[test]
    fn unconstrained_flows_get_infinite_rate() {
        let rates = max_min_allocate(&[10.0, f64::INFINITY], &[vec![], vec![1], vec![0]]);
        assert!(rates[0].is_infinite());
        assert!(rates[1].is_infinite());
        assert!(close(rates[2], 10.0));
    }

    #[test]
    fn duplicate_links_in_a_path_count_once() {
        let rates = max_min_allocate(&[10.0], &[vec![0, 0], vec![0]]);
        assert!(close(rates[0], 5.0), "{rates:?}");
        assert!(close(rates[1], 5.0), "{rates:?}");
    }

    /// Property (seeded sweep): for random topologies
    /// and flow sets, no link's summed allocation exceeds its capacity, and
    /// every flow crossing at least one finite link gets a positive finite
    /// rate.
    #[test]
    fn no_link_oversubscribed_property() {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(0xF10);
        for _case in 0..200 {
            let num_links = rng.gen_range(1..8usize);
            let caps: Vec<f64> = (0..num_links)
                .map(|_| rng.gen_range(1.0..1000.0f64))
                .collect();
            let num_flows = rng.gen_range(1..12usize);
            let flows: Vec<Vec<usize>> = (0..num_flows)
                .map(|_| {
                    let hops = rng.gen_range(0..=3.min(num_links));
                    (0..hops).map(|_| rng.gen_range(0..num_links)).collect()
                })
                .collect();
            let rates = max_min_allocate(&caps, &flows);
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = (0..num_flows)
                    .filter(|&f| flows[f].contains(&l))
                    .map(|f| rates[f])
                    .sum();
                assert!(
                    used <= cap * (1.0 + 1e-9),
                    "link {l} oversubscribed: {used} > {cap} (caps {caps:?}, flows {flows:?})"
                );
            }
            for (f, path) in flows.iter().enumerate() {
                if path.is_empty() {
                    assert!(rates[f].is_infinite());
                } else {
                    assert!(
                        rates[f] > 0.0 && rates[f].is_finite(),
                        "flow {f}: {rates:?}"
                    );
                }
            }
        }
    }

    /// Permuting the flow order permutes the rates identically — the
    /// allocation itself is order-free.
    #[test]
    fn allocation_is_permutation_invariant() {
        let caps = [10.0, 4.0, 7.0];
        let flows = [vec![0, 1], vec![0], vec![1, 2], vec![2], vec![0, 2]];
        let base = max_min_allocate(&caps, &flows);
        let perm = [3usize, 0, 4, 1, 2];
        let shuffled: Vec<Vec<usize>> = perm.iter().map(|&i| flows[i].clone()).collect();
        let rates = max_min_allocate(&caps, &shuffled);
        for (pos, &orig) in perm.iter().enumerate() {
            assert_eq!(rates[pos].to_bits(), base[orig].to_bits(), "flow {orig}");
        }
    }
}
