//! The `thunderserve` command-line tool: schedule deployments and simulate
//! serving from the shell.
//!
//! ```text
//! thunderserve catalog
//! thunderserve schedule --cluster cloud --model 30b --workload coding --rate 2.5
//! thunderserve simulate --cluster cloud --model 30b --workload conversation \
//!     --rate 2.0 --horizon 120 [--f16-kv] [--seed 7] [--steps 100]
//! ```

use std::process::exit;
use std::time::Instant;
use thunderserve::prelude::*;
use ts_workload::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            exit(1);
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  thunderserve catalog\n  thunderserve schedule --cluster <cloud|inhouse|a5000:N|case:GBPS> \\\n      --model <7b|13b|30b> --workload <coding|conversation|fixed:IN:OUT> --rate <req/s> \\\n      [--seed N] [--steps N]\n  thunderserve simulate  (same flags) --horizon <secs> [--f16-kv]\n  plans: --save <file> / --plan <file>; traces: --trace <csv: arrival_s,prompt,output>"
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("catalog") => Ok(catalog()),
        Some("schedule") => schedule(&parse_flags(&args[1..])?, false),
        Some("simulate") => schedule(&parse_flags(&args[1..])?, true),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("no command given".into()),
    }
}

#[derive(Debug, Clone)]
struct Flags {
    cluster: String,
    model: String,
    workload: String,
    rate: f64,
    seed: u64,
    steps: usize,
    horizon: f64,
    f16_kv: bool,
    save: Option<String>,
    plan: Option<String>,
    trace: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        cluster: "cloud".into(),
        model: "30b".into(),
        workload: "coding".into(),
        rate: 2.0,
        seed: 0,
        steps: 100,
        horizon: 120.0,
        f16_kv: false,
        save: None,
        plan: None,
        trace: None,
    };
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let mut take = |f_ref: &mut dyn FnMut(&str) -> Result<(), String>| -> Result<(), String> {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{key} needs a value"))?;
            f_ref(v)?;
            i += 2;
            Ok(())
        };
        match key {
            "--cluster" => take(&mut |v| {
                f.cluster = v.to_string();
                Ok(())
            })?,
            "--model" => take(&mut |v| {
                f.model = v.to_string();
                Ok(())
            })?,
            "--workload" => take(&mut |v| {
                f.workload = v.to_string();
                Ok(())
            })?,
            "--rate" => take(&mut |v| {
                f.rate = v.parse().map_err(|_| format!("bad rate {v:?}"))?;
                Ok(())
            })?,
            "--seed" => take(&mut |v| {
                f.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                Ok(())
            })?,
            "--steps" => take(&mut |v| {
                f.steps = v.parse().map_err(|_| format!("bad steps {v:?}"))?;
                Ok(())
            })?,
            "--horizon" => take(&mut |v| {
                f.horizon = v.parse().map_err(|_| format!("bad horizon {v:?}"))?;
                Ok(())
            })?,
            "--save" => take(&mut |v| {
                f.save = Some(v.to_string());
                Ok(())
            })?,
            "--plan" => take(&mut |v| {
                f.plan = Some(v.to_string());
                Ok(())
            })?,
            "--trace" => take(&mut |v| {
                f.trace = Some(v.to_string());
                Ok(())
            })?,
            "--f16-kv" => {
                f.f16_kv = true;
                i += 1;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(f.rate.is_finite() && f.rate > 0.0) {
        return Err("rate must be positive".into());
    }
    Ok(f)
}

fn parse_cluster(spec: &str) -> Result<Cluster, String> {
    use thunderserve::cluster::presets;
    if spec == "cloud" {
        return Ok(presets::paper_cloud_cluster());
    }
    if spec == "inhouse" {
        return Ok(presets::paper_inhouse_cluster());
    }
    if let Some(n) = spec.strip_prefix("a5000:") {
        let n: usize = n.parse().map_err(|_| format!("bad a5000 size {n:?}"))?;
        if n == 0 || !n.is_multiple_of(4) {
            return Err("a5000 cluster size must be a positive multiple of 4".into());
        }
        return Ok(presets::a5000_cluster(n));
    }
    if let Some(g) = spec.strip_prefix("case:") {
        let gbps: f64 = g.parse().map_err(|_| format!("bad bandwidth {g:?}"))?;
        if gbps <= 0.0 {
            return Err("bandwidth must be positive".into());
        }
        return Ok(presets::network_case_cluster(gbps * 0.125e9));
    }
    Err(format!("unknown cluster {spec:?}"))
}

fn parse_model(spec: &str) -> Result<ModelSpec, String> {
    match spec {
        "7b" => Ok(ModelSpec::llama_7b()),
        "13b" => Ok(ModelSpec::llama_13b()),
        "30b" => Ok(ModelSpec::llama_30b()),
        other => Err(format!("unknown model {other:?} (7b|13b|30b)")),
    }
}

fn parse_workload(spec: &str, rate: f64) -> Result<WorkloadSpec, String> {
    if spec == "coding" {
        return Ok(ts_workload::spec::coding(rate));
    }
    if spec == "conversation" {
        return Ok(ts_workload::spec::conversation(rate));
    }
    if let Some(rest) = spec.strip_prefix("fixed:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 2 {
            return Err("fixed workload is fixed:IN:OUT".into());
        }
        let input: u32 = parts[0].parse().map_err(|_| "bad input length")?;
        let output: u32 = parts[1].parse().map_err(|_| "bad output length")?;
        return Ok(ts_workload::spec::fixed(input, output, rate));
    }
    Err(format!("unknown workload {spec:?}"))
}

/// Reference SLO scaled for cloud-class GPUs serving the chosen model.
fn default_slo(model: &ModelSpec) -> SloSpec {
    let scale = model.num_layers as f64 / 60.0;
    SloSpec::new(
        SimDuration::from_secs_f64(3.2 * scale),
        SimDuration::from_secs_f64(0.24 * scale),
        SimDuration::from_secs_f64(48.0 * scale),
    )
}

fn catalog() -> String {
    use thunderserve::cluster::GpuModel;
    let mut out = String::from("GPU      mem-bw        fp16          memory   price/hr\n");
    for m in GpuModel::ALL {
        let s = m.spec();
        out.push_str(&format!(
            "{:<8} {:>6.0} GB/s  {:>7.1} TFLOPS  {:>3} GB   ${:.3}\n",
            m.short_name(),
            s.mem_bandwidth / 1e9,
            s.peak_fp16_flops / 1e12,
            s.memory_bytes >> 30,
            s.price_per_hour
        ));
    }
    out
}

fn schedule(flags: &Flags, simulate: bool) -> Result<String, String> {
    let cluster = parse_cluster(&flags.cluster)?;
    let model = parse_model(&flags.model)?;
    let workload = parse_workload(&flags.workload, flags.rate)?;
    let slo = default_slo(&model);

    let (plan, summary) = if let Some(path) = &flags.plan {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read plan {path:?}: {e}"))?;
        let plan = ts_common::plan_io::from_text(&text).map_err(|e| e.to_string())?;
        cluster
            .check_gpus(plan.groups.iter().flat_map(|g| g.gpus()))
            .map_err(|e| format!("plan {path:?} does not fit cluster {}: {e}", flags.cluster))?;
        let (p, d) = plan.phase_ratio();
        (
            plan,
            format!("loaded plan from {path}: {p} prefill + {d} decode replicas\n"),
        )
    } else {
        let mut cfg = SchedulerConfig::default();
        cfg.seed = flags.seed;
        cfg.n_step = flags.steps;
        let start = Instant::now();
        let result = Scheduler::new(cfg)
            .schedule(&cluster, &model, &workload, &slo)
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed().as_secs_f64();
        let (p, d) = result.plan.phase_ratio();
        let summary = format!(
            "plan: {p} prefill + {d} decode replicas (scheduled in {elapsed:.3}s, {} evaluations, \
             est. attainment {:.3})\n",
            result.evaluations, result.estimated_attainment
        );
        (result.plan, summary)
    };
    if let Some(path) = &flags.save {
        std::fs::write(path, ts_common::plan_io::to_text(&plan))
            .map_err(|e| format!("cannot write plan {path:?}: {e}"))?;
    }

    let mut out = format!(
        "cluster {}: {} GPUs, ${:.2}/hr\n{summary}",
        flags.cluster,
        cluster.num_gpus(),
        cluster.price_per_hour(),
    );
    for g in &plan.groups {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for gpu in g.gpus() {
            *counts
                .entry(cluster.gpu(gpu).model.short_name())
                .or_default() += 1;
        }
        let conf = counts
            .iter()
            .map(|(m, c)| format!("{c}x{m}"))
            .collect::<Vec<_>>()
            .join("+");
        out.push_str(&format!(
            "  {:7} {} on {}\n",
            g.phase.to_string(),
            g.parallel,
            conf
        ));
    }

    if simulate {
        let mut sim_cfg = SimConfig::new(model);
        if flags.f16_kv {
            sim_cfg = sim_cfg.with_f16_kv();
        }
        let reqs = if let Some(path) = &flags.trace {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
            ts_workload::trace::from_csv(&text).map_err(|e| e.to_string())?
        } else {
            ts_workload::generator::generate(
                &workload,
                SimDuration::from_secs_f64(flags.horizon),
                flags.seed,
            )
        };
        let metrics = Simulation::new(&cluster, &plan, sim_cfg)
            .and_then(|mut s| s.run(&reqs))
            .map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "\nsimulated {:.0}s: {} completed, {} dropped, {:.2} req/s, {:.0} tok/s\n",
            flags.horizon,
            metrics.num_completed(),
            metrics.num_dropped(),
            metrics.throughput_rps(),
            metrics.throughput_tokens()
        ));
        for kind in SloKind::ALL {
            out.push_str(&format!(
                "  {kind}: p50 {} p99 {} attainment {:.1}%\n",
                metrics
                    .latency_percentile(kind, 0.5)
                    .map(|d| d.to_string())
                    .unwrap_or("-".into()),
                metrics
                    .latency_percentile(kind, 0.99)
                    .map(|d| d.to_string())
                    .unwrap_or("-".into()),
                100.0 * metrics.slo_attainment(&slo, kind)
            ));
        }
        out.push_str(&format!(
            "  joint attainment: {:.1}%\n",
            100.0 * metrics.joint_attainment(&slo)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags_defaults_and_overrides() {
        let f = parse_flags(&s(&["--rate", "3.5", "--model", "13b", "--f16-kv"])).unwrap();
        assert_eq!(f.rate, 3.5);
        assert_eq!(f.model, "13b");
        assert!(f.f16_kv);
        assert_eq!(f.steps, 100);
    }

    #[test]
    fn parse_flags_rejects_garbage() {
        assert!(parse_flags(&s(&["--rate"])).is_err());
        assert!(parse_flags(&s(&["--rate", "zero"])).is_err());
        assert!(parse_flags(&s(&["--bogus", "1"])).is_err());
        assert!(parse_flags(&s(&["--rate", "-1"])).is_err());
    }

    #[test]
    fn parse_cluster_variants() {
        assert_eq!(parse_cluster("cloud").unwrap().num_gpus(), 32);
        assert_eq!(parse_cluster("inhouse").unwrap().num_gpus(), 8);
        assert_eq!(parse_cluster("a5000:12").unwrap().num_gpus(), 12);
        assert_eq!(parse_cluster("case:40").unwrap().num_gpus(), 8);
        assert!(parse_cluster("a5000:5").is_err());
        assert!(parse_cluster("case:-1").is_err());
        assert!(parse_cluster("nope").is_err());
    }

    #[test]
    fn parse_workload_variants() {
        assert_eq!(parse_workload("coding", 1.0).unwrap().name, "coding");
        let fx = parse_workload("fixed:512:16", 2.0).unwrap();
        assert_eq!((fx.prompt.mean(), fx.output.mean()), (512.0, 16.0));
        assert!(parse_workload("fixed:512", 1.0).is_err());
        assert!(parse_workload("x", 1.0).is_err());
    }

    #[test]
    fn catalog_has_all_gpus() {
        let c = catalog();
        for name in ["A100", "A6000", "A5000", "A40", "3090Ti"] {
            assert!(c.contains(name));
        }
    }

    #[test]
    fn schedule_smoke_via_cli_path() {
        let f = parse_flags(&s(&[
            "--cluster",
            "case:40",
            "--model",
            "13b",
            "--workload",
            "coding",
            "--rate",
            "1.0",
            "--steps",
            "10",
        ]))
        .unwrap();
        let report = schedule(&f, false).unwrap();
        assert!(report.contains("prefill"));
        assert!(report.contains("decode"));
    }

    #[test]
    fn plan_naming_a_missing_gpu_is_an_error() {
        let path = std::env::temp_dir().join(format!("ts-plan-{}.txt", std::process::id()));
        let plan = "thunderserve-plan v1\n\
            group prefill tp=1 pp=1\nstage layers=32 gpus=999\n\
            group decode tp=1 pp=1\nstage layers=32 gpus=1\n\
            routing 1x1\n1\n";
        std::fs::write(&path, plan).unwrap();
        let f = parse_flags(&s(&[
            "--cluster",
            "cloud",
            "--model",
            "7b",
            "--workload",
            "coding",
            "--rate",
            "1",
            "--horizon",
            "30",
            "--plan",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = schedule(&f, true).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains("unknown GPU") && err.contains("999"), "{err}");
    }

    #[test]
    fn unknown_command_is_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }
}
