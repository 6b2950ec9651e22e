//! Records the multi-model shared-pool numbers to `BENCH_mm.json`.
//!
//! Two tenants — a LLaMA-7B conversation service (60% traffic share) and a
//! LLaMA-13B coding service (40%) — rent the same 12×A5000 pool. The
//! partitioned baseline carves the pool by contract share and schedules each
//! tenant alone in its slice; the shared arm runs `schedule_multi` over the
//! whole pool. Everything is simulated time, bit-reproducible.
//!
//! The properties this extension exists for are checked before the JSON is
//! written: share-weighted joint attainment on the shared pool must be at
//! least the partitioned baseline's, at equal or lower $/hr, and every
//! tenant must complete work in both arms. CI runs this and `cmp`s the
//! output with the committed artifact, so any change to a simulated figure
//! fails the build; the checks decide whether a deliberate re-record is
//! acceptable.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_mm [out.json]`

use ts_bench::exps::mm;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_mm.json".to_string());

    let r = mm::measure(false);
    for arm in [&r.partitioned, &r.shared] {
        for t in &arm.tenants {
            println!(
                "{:>11}  {}  attainment {:>6.3}  completed {:>4}/{:<4}",
                arm.name, t.model, t.attainment, t.completed, t.submitted
            );
            assert!(
                t.submitted > 0,
                "{}: {} submitted nothing",
                arm.name,
                t.model
            );
            assert!(
                t.completed > 0,
                "{}: {} completed nothing",
                arm.name,
                t.model
            );
        }
        println!(
            "{:>11}  weighted attainment {:.3}  cost ${:.2}/hr",
            arm.name, arm.weighted_attainment, arm.cost_per_hour
        );
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"multi-model serving: two tenants (LLaMA-7B conversation at 60% share, LLaMA-13B coding at 40%) on one 12xA5000 pool, shared schedule_multi plan vs contract-share static partition (8+4 GPUs)\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic). attainment = joint SLO attainment under each tenant's own SLO; weighted = traffic-share-weighted across tenants; cost = hourly price of the GPUs each arm's plan(s) occupy. The 13B coding tenant starves in its 4-GPU slice while the 7B tenant strands capacity; sharing moves the stranded GPUs across the tenant boundary.\",\n");
    json.push_str("  \"arms\": [\n");
    let arms = [&r.partitioned, &r.shared];
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"weighted_attainment\": {:.6}, \"cost_per_hour\": {:.3}, \"tenants\": [\n",
            a.name, a.weighted_attainment, a.cost_per_hour
        ));
        for (j, t) in a.tenants.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"model\": \"{}\", \"attainment\": {:.6}, \"completed\": {}, \"submitted\": {}}}{}\n",
                t.model,
                t.attainment,
                t.completed,
                t.submitted,
                if j + 1 == a.tenants.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Sharing must not lose weighted attainment or cost more than the
    // static partition; the shared gate also checks the committed artifact.
    match ts_bench::gate::check("BENCH_mm", &json, true) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}
