//! Progressive-filling max-min fair bandwidth allocation over path
//! classes.
//!
//! Given a set of capacitated links and a set of flows, each crossing a
//! subset of the links, the max-min fair allocation is the unique rate
//! vector in which no flow's rate can be increased without decreasing the
//! rate of a flow that is no better off. Progressive filling computes it by
//! growing all rates together and freezing, at each step, every flow
//! crossing the *most contended* link (the one with the smallest fair
//! share of remaining capacity).
//!
//! A flow's rate depends only on the links it crosses, so flows sharing a
//! path always get one rate. [`MaxMin`] therefore fills over path classes
//! — one per distinct path, with its member count — and scans only the
//! links some live class crosses. Its work per round is touched links ×
//! live classes, not links × flows, and a member change updates the
//! fill's inputs in O(path).

/// The work of one fill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Filling {
    /// Bottleneck searches, the last of which may find none.
    pub rounds: u64,
    /// Class-link cells those searches scanned: rounds × touched links ×
    /// live classes.
    pub cells: u64,
}

/// One path class as the filler keeps it.
#[derive(Debug, Clone)]
struct Class {
    /// The distinct links of the path, in first-listed order.
    links: Vec<usize>,
    members: usize,
    /// Rate after the last fill that saw the class live.
    rate: f64,
    /// Frozen in the current fill.
    frozen: bool,
}

/// One link as the filler keeps it.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Members of the live classes crossing the link.
    users: usize,
    /// During a fill: members of the unfrozen classes crossing the link.
    unfrozen: usize,
    /// During a fill: capacity not yet handed out.
    remaining: f64,
}

/// An incremental max-min allocator over path classes.
///
/// The fill's inputs are kept up to date as members come and go
/// (`MaxMin::add_member`, `MaxMin::remove_member`, each O(path)): the
/// user count of every link (members of the live classes crossing it,
/// each class counted once), the ascending list of live classes and the
/// ascending list of the links they cross. A fill (`MaxMin::fill`)
/// therefore seeds only the touched links, and each round scans them for
/// the bottleneck and subtracts the freezing classes' members from their
/// links' counts. No call after the first for a class allocates.
///
/// The rates are bit-identical to filling over the flows one by one. A
/// flat filler freezes the bottleneck's flows one at a time and charges
/// each flow's share to every other link it crosses. Here a freezing class
/// charges the share once per member, never `members × share`. Every
/// charge in a round subtracts the same share, so each link ends the round
/// with the same float either way. Users are counted exactly as integers,
/// and links are scanned in ascending index order with ties broken toward
/// the lowest index, as in the flat filler.
#[derive(Debug, Clone, Default)]
pub struct MaxMin {
    classes: Vec<Class>,
    links: Vec<Link>,
    /// Classes with at least one member, ascending.
    live: Vec<usize>,
    /// Links some live class crosses, ascending.
    touched: Vec<usize>,
    /// Members of all live classes.
    members: usize,
}

impl MaxMin {
    /// Registers a class over `links` with no members and returns its
    /// index. A link listed twice counts once.
    pub(crate) fn add_class(&mut self, links: &[usize]) -> usize {
        let mut distinct = Vec::with_capacity(links.len());
        for &l in links {
            if !distinct.contains(&l) {
                distinct.push(l);
            }
        }
        if let Some(&top) = distinct.iter().max() {
            if self.links.len() <= top {
                self.links.resize(top + 1, Link::default());
            }
        }
        self.classes.push(Class {
            links: distinct,
            members: 0,
            rate: f64::INFINITY,
            frozen: false,
        });
        self.classes.len() - 1
    }

    /// The distinct links class `class` crosses, in first-listed order.
    pub(crate) fn links(&self, class: usize) -> &[usize] {
        &self.classes[class].links
    }

    /// Class `class`'s member count.
    #[cfg(test)]
    pub(crate) fn members(&self, class: usize) -> usize {
        self.classes[class].members
    }

    /// Adds one member (a flow) to class `class`. O(path).
    pub(crate) fn add_member(&mut self, class: usize) {
        self.set_members(class, self.classes[class].members + 1);
    }

    /// Removes one member from class `class`. O(path).
    ///
    /// # Panics
    /// Panics if the class has no members.
    pub(crate) fn remove_member(&mut self, class: usize) {
        let members = self.classes[class].members;
        assert!(members > 0, "class {class} has no member to remove");
        self.set_members(class, members - 1);
    }

    /// Sets class `c`'s member count, keeping the link user counts and
    /// the live and touched lists up to date.
    fn set_members(&mut self, c: usize, members: usize) {
        let class = &mut self.classes[c];
        let old = class.members;
        if old == members {
            return;
        }
        for &l in &class.links {
            let link = &mut self.links[l];
            let users = link.users + members - old;
            if link.users == 0 {
                let at = self.touched.binary_search(&l).unwrap_err();
                self.touched.insert(at, l);
            } else if users == 0 {
                let at = self
                    .touched
                    .binary_search(&l)
                    .expect("a used link is touched");
                self.touched.remove(at);
            }
            link.users = users;
        }
        if old == 0 {
            let at = self.live.binary_search(&c).unwrap_err();
            self.live.insert(at, c);
        } else if members == 0 {
            let at = self
                .live
                .binary_search(&c)
                .expect("a class with members is live");
            self.live.remove(at);
        }
        class.members = members;
        self.members = self.members + members - old;
    }

    /// Computes the max-min fair rate of every live class over links of
    /// `capacity` (bytes/s); read them with [`MaxMin::rate`]. Links with
    /// infinite capacity never constrain anyone; a class crossing only
    /// such links (or none, e.g. loopback) is unconstrained and gets
    /// `f64::INFINITY`.
    ///
    /// # Panics
    /// Panics if a live class references a link index out of range or a
    /// link of non-positive capacity.
    pub(crate) fn fill(&mut self, capacity: &[f64]) -> Filling {
        for &l in &self.touched {
            assert!(
                l < capacity.len(),
                "a live class references unknown link {l}"
            );
            let c = capacity[l];
            assert!(
                c > 0.0,
                "link {l} has non-positive capacity {c}; use f64::INFINITY for free links"
            );
            let link = &mut self.links[l];
            link.remaining = c;
            link.unfrozen = link.users;
        }
        for &c in &self.live {
            let class = &mut self.classes[c];
            class.rate = f64::INFINITY;
            class.frozen = false;
        }
        let mut work = Filling::default();
        if self.live.is_empty() {
            return work;
        }
        let mut unfrozen = self.members;
        loop {
            work.rounds += 1;
            work.cells += (self.touched.len() * self.live.len()) as u64;
            // Fair share of every still-constraining link.
            let mut bottleneck: Option<(usize, f64)> = None;
            for &l in &self.touched {
                let link = &self.links[l];
                if link.remaining.is_infinite() || link.unfrozen == 0 {
                    continue;
                }
                let share = link.remaining / link.unfrozen as f64;
                match bottleneck {
                    Some((_, best)) if best <= share => {}
                    _ => bottleneck = Some((l, share)),
                }
            }
            let Some((bl, fair)) = bottleneck else {
                // Every unfrozen class crosses only unconstrained links.
                break;
            };
            // Freeze the bottleneck link's classes at the fair share and
            // charge it against every other link they cross, once per
            // member flow.
            for &c in &self.live {
                let class = &mut self.classes[c];
                if class.frozen || !class.links.contains(&bl) {
                    continue;
                }
                class.rate = fair;
                class.frozen = true;
                unfrozen -= class.members;
                for &l in &class.links {
                    let link = &mut self.links[l];
                    link.unfrozen -= class.members;
                    if l == bl || link.remaining.is_infinite() {
                        continue;
                    }
                    for _ in 0..class.members {
                        link.remaining = (link.remaining - fair).max(0.0);
                    }
                }
            }
            self.links[bl].remaining = 0.0;
            if unfrozen == 0 {
                break;
            }
        }
        work
    }

    /// Forgets every class, then loads `classes` with their members and
    /// fills from scratch over links of `capacity` (bytes/s); read the
    /// rates with [`MaxMin::rate`]. Class `c` of `classes` keeps index `c`.
    ///
    /// # Panics
    /// Panics if a class with members references a link index out of range
    /// or a link of non-positive capacity.
    #[cfg(test)]
    pub(crate) fn allocate(&mut self, capacity: &[f64], classes: &[PathClass]) -> Filling {
        self.classes.clear();
        self.links.clear();
        self.live.clear();
        self.touched.clear();
        self.members = 0;
        for class in classes {
            let c = self.add_class(&class.links);
            self.set_members(c, class.members);
        }
        self.fill(capacity)
    }

    /// Class `class`'s rate from the last fill that saw it live.
    pub fn rate(&self, class: usize) -> f64 {
        self.classes[class].rate
    }

    /// Asserts that the incremental inputs equal a recount from the
    /// member counts.
    #[cfg(test)]
    pub(crate) fn assert_counts_exact(&self) {
        let mut users = vec![0usize; self.links.len()];
        for class in &self.classes {
            for &l in &class.links {
                users[l] += class.members;
            }
        }
        let counts: Vec<usize> = self.links.iter().map(|l| l.users).collect();
        assert_eq!(counts, users, "link user counts");
        let live: Vec<usize> = (0..self.classes.len())
            .filter(|&c| self.classes[c].members > 0)
            .collect();
        assert_eq!(self.live, live, "live classes");
        let touched: Vec<usize> = (0..users.len()).filter(|&l| users[l] > 0).collect();
        assert_eq!(self.touched, touched, "touched links");
        let members: usize = self.classes.iter().map(|c| c.members).sum();
        assert_eq!(self.members, members, "live members");
    }
}

/// The flows that cross one path: the input of a from-scratch
/// [`MaxMin::allocate`].
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathClass {
    /// The link indices the path crosses. A link listed twice still only
    /// gives a member one share of it.
    pub(crate) links: Vec<usize>,
    /// Flows on this path. A class with no members takes no bandwidth.
    pub(crate) members: usize,
}

/// The flat filler, flow by flow: the oracle [`MaxMin`] must match bit for
/// bit. Returns each flow's rate and the number of bottleneck searches.
///
/// `flows[f]` lists the link indices flow `f` crosses (duplicates are
/// ignored). Reordering `flows` permutes the rates the same way and
/// changes none.
#[cfg(test)]
pub(crate) fn max_min_allocate(capacity: &[f64], flows: &[Vec<usize>]) -> (Vec<f64>, u64) {
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
    let mut rounds = 0;
    // A flow counts once per link even if its path lists the link twice.
    let crosses = |f: usize, l: usize| flows[f].contains(&l);
    loop {
        rounds += 1;
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
    (rate, rounds)
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
        let rates = max_min_allocate(&[10.0], &[vec![0], vec![0]]).0;
        assert!(close(rates[0], 5.0), "{rates:?}");
        assert!(close(rates[1], 5.0), "{rates:?}");
    }

    #[test]
    fn shared_uplink_with_wide_downlinks() {
        // Links: 0 = shared uplink (10), 1 and 2 = wide downlinks (100).
        // Both flows bottleneck on the uplink; the downlinks never bind.
        let caps = [10.0, 100.0, 100.0];
        let rates = max_min_allocate(&caps, &[vec![0, 1], vec![0, 2]]).0;
        assert!(close(rates[0], 5.0), "{rates:?}");
        assert!(close(rates[1], 5.0), "{rates:?}");
    }

    #[test]
    fn asymmetric_up_and_down_caps() {
        // Flow A crosses uplink (10) then a narrow downlink (4); flow B
        // only the uplink. A is pinned to 4 by its downlink; B takes the
        // uplink's remainder, 6.
        let caps = [10.0, 4.0];
        let rates = max_min_allocate(&caps, &[vec![0, 1], vec![0]]).0;
        assert!(close(rates[0], 4.0), "{rates:?}");
        assert!(close(rates[1], 6.0), "{rates:?}");
    }

    #[test]
    fn textbook_three_flow_example() {
        // The classic max-min example: caps [10, 4]; f0 = both links,
        // f1 = link 0 only, f2 = link 1 only. Link 1's fair share (2) is
        // the first bottleneck: f0 = f2 = 2; link 0 then has 8 left for f1.
        let rates = max_min_allocate(&[10.0, 4.0], &[vec![0, 1], vec![0], vec![1]]).0;
        assert!(close(rates[0], 2.0), "{rates:?}");
        assert!(close(rates[1], 8.0), "{rates:?}");
        assert!(close(rates[2], 2.0), "{rates:?}");
    }

    #[test]
    fn unconstrained_flows_get_infinite_rate() {
        let rates = max_min_allocate(&[10.0, f64::INFINITY], &[vec![], vec![1], vec![0]]).0;
        assert!(rates[0].is_infinite());
        assert!(rates[1].is_infinite());
        assert!(close(rates[2], 10.0));
    }

    #[test]
    fn duplicate_links_in_a_path_count_once() {
        let rates = max_min_allocate(&[10.0], &[vec![0, 0], vec![0]]).0;
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
            let rates = max_min_allocate(&caps, &flows).0;
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
        let base = max_min_allocate(&caps, &flows).0;
        let perm = [3usize, 0, 4, 1, 2];
        let shuffled: Vec<Vec<usize>> = perm.iter().map(|&i| flows[i].clone()).collect();
        let rates = max_min_allocate(&caps, &shuffled).0;
        for (pos, &orig) in perm.iter().enumerate() {
            assert_eq!(rates[pos].to_bits(), base[orig].to_bits(), "flow {orig}");
        }
    }

    /// Classes with their members expanded into a flat flow list, in a
    /// shuffled order, with each flow's class.
    fn expand(classes: &[PathClass], rng: &mut impl rand::Rng) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut flows: Vec<(Vec<usize>, usize)> = classes
            .iter()
            .enumerate()
            .flat_map(|(c, class)| (0..class.members).map(move |_| (class.links.clone(), c)))
            .collect();
        for i in (1..flows.len()).rev() {
            flows.swap(i, rng.gen_range(0..=i));
        }
        flows.into_iter().unzip()
    }

    #[test]
    fn classes_fill_like_the_textbook_example() {
        let classes = [
            PathClass {
                links: vec![0, 1],
                members: 1,
            },
            PathClass {
                links: vec![0],
                members: 1,
            },
            PathClass {
                links: vec![1],
                members: 1,
            },
            PathClass {
                links: vec![],
                members: 0,
            },
        ];
        let mut mm = MaxMin::default();
        let work = mm.allocate(&[10.0, 4.0], &classes);
        assert_eq!([mm.rate(0), mm.rate(1), mm.rate(2)], [2.0, 8.0, 2.0]);
        // Link 1 freezes two classes, link 0 the third; both links are
        // scanned against the three live classes each round.
        assert_eq!(
            work,
            Filling {
                rounds: 2,
                cells: 12
            }
        );
    }

    /// Differential (seeded, 6,000 cases): over random path multisets the
    /// class allocator matches the flat oracle bit for bit, flow by flow,
    /// and takes the same number of rounds. The cases cover duplicate
    /// links inside a path, infinite-capacity links, empty (loopback)
    /// paths, member-less classes and equal paths listed as separate
    /// classes; the flat flows are shuffled.
    #[test]
    fn class_allocation_matches_the_flat_oracle_bit_for_bit() {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(0xC1A55);
        let mut mm = MaxMin::default();
        let mut shapes = [0usize; 4];
        for case in 0..6_000 {
            let num_links = rng.gen_range(1..10usize);
            let caps: Vec<f64> = (0..num_links)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        f64::INFINITY
                    } else {
                        rng.gen_range(0.5..1e4f64)
                    }
                })
                .collect();
            let mut classes: Vec<PathClass> = (0..rng.gen_range(1..8usize))
                .map(|_| PathClass {
                    links: (0..rng.gen_range(0..=4usize))
                        .map(|_| rng.gen_range(0..num_links))
                        .collect(),
                    members: rng.gen_range(0..=6usize),
                })
                .collect();
            if rng.gen_bool(0.3) {
                let twin = classes[rng.gen_range(0..classes.len())].clone();
                classes.push(twin);
            }
            let (flows, class_of) = expand(&classes, &mut rng);
            let work = mm.allocate(&caps, &classes);
            let (oracle, rounds) = max_min_allocate(&caps, &flows);
            for (f, (&rate, &c)) in oracle.iter().zip(&class_of).enumerate() {
                assert_eq!(
                    mm.rate(c).to_bits(),
                    rate.to_bits(),
                    "case {case}, flow {f} of class {c}: caps {caps:?}, classes {classes:?}"
                );
            }
            if !flows.is_empty() {
                assert_eq!(work.rounds, rounds, "case {case}: {classes:?}");
            }
            for class in &classes {
                let path = &class.links;
                let dup = path.iter().enumerate().any(|(i, l)| path[..i].contains(l));
                shapes[0] += usize::from(dup);
                shapes[1] += usize::from(path.iter().any(|&l| caps[l].is_infinite()));
                shapes[2] += usize::from(path.is_empty() && class.members > 0);
            }
            shapes[3] += usize::from(
                (1..classes.len())
                    .any(|i| classes[..i].iter().any(|c| c.links == classes[i].links)),
            );
        }
        assert!(
            shapes.iter().all(|&n| n >= 100),
            "every shape is covered: {shapes:?}"
        );
    }

    /// Churn differential (seeded, 2,000 sequences × 50 operations): the
    /// incremental filler, after each one-member change on a random class,
    /// matches the flat oracle bit for bit, flow by flow, with the same
    /// rounds, and matches a from-scratch [`MaxMin::allocate`] in rates and
    /// work. Classes go live, dead and live again; the paths include
    /// duplicate links, infinite-capacity links and empty paths.
    #[test]
    fn incremental_fill_matches_the_oracles_under_churn() {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(0xC4_0A7);
        let mut scratch = MaxMin::default();
        // Revivals (a dead class gaining a member after having had
        // some), duplicate-link paths, infinite links and empty paths,
        // counted over operations.
        let mut shapes = [0usize; 4];
        for seq in 0..2_000 {
            let num_links = rng.gen_range(1..10usize);
            let caps: Vec<f64> = (0..num_links)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        f64::INFINITY
                    } else {
                        rng.gen_range(0.5..1e4f64)
                    }
                })
                .collect();
            let mut classes: Vec<PathClass> = (0..rng.gen_range(1..7usize))
                .map(|_| PathClass {
                    links: (0..rng.gen_range(0..=4usize))
                        .map(|_| rng.gen_range(0..num_links))
                        .collect(),
                    members: 0,
                })
                .collect();
            let mut mm = MaxMin::default();
            for class in &classes {
                mm.add_class(&class.links);
            }
            let mut was_live = vec![false; classes.len()];
            for op in 0..50 {
                let c = rng.gen_range(0..classes.len());
                if classes[c].members > 0 && rng.gen_bool(0.45) {
                    classes[c].members -= 1;
                    mm.remove_member(c);
                } else {
                    shapes[0] += usize::from(classes[c].members == 0 && was_live[c]);
                    classes[c].members += 1;
                    mm.add_member(c);
                    was_live[c] = true;
                }
                mm.assert_counts_exact();
                let work = mm.fill(&caps);
                let fresh = scratch.allocate(&caps, &classes);
                assert_eq!(work, fresh, "sequence {seq}, op {op}: {classes:?}");
                let (flows, class_of) = expand(&classes, &mut rng);
                let (oracle, rounds) = max_min_allocate(&caps, &flows);
                for (f, (&rate, &c)) in oracle.iter().zip(&class_of).enumerate() {
                    assert_eq!(
                        mm.rate(c).to_bits(),
                        rate.to_bits(),
                        "sequence {seq}, op {op}, flow {f} of class {c}: caps {caps:?}, \
                         classes {classes:?}"
                    );
                    assert_eq!(scratch.rate(c).to_bits(), rate.to_bits());
                }
                if !flows.is_empty() {
                    assert_eq!(work.rounds, rounds, "sequence {seq}, op {op}");
                }
                for class in classes.iter().filter(|c| c.members > 0) {
                    let path = &class.links;
                    shapes[1] +=
                        usize::from(path.iter().enumerate().any(|(i, l)| path[..i].contains(l)));
                    shapes[2] += usize::from(path.iter().any(|&l| caps[l].is_infinite()));
                    shapes[3] += usize::from(path.is_empty());
                }
            }
        }
        assert!(
            shapes.iter().all(|&n| n >= 1_000),
            "every shape is covered: {shapes:?}"
        );
    }
}
