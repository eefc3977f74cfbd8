//! The repository's benchmark: one command per workload run.
//!
//! ```text
//! ec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload with tracing off and reports
//! the end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced passes, replays the workload's ops through every layer, and
//! reports the per-layer metrics and the tracing overhead. Every pass
//! checks its outputs: every correct replica must end in the state a
//! sequential `KvStore` replay of the submitted ops gives. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`; the line before it gives the run's context (host, seed,
//! rate, failed fraction, deterministic counts). A run that finds wrong
//! outputs prints `"correct": false` and exits 1.

mod loadgen;
mod oracle;
mod realwl;
mod replay;
mod simwl;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ec_core::etob_omega::EtobConfig;
use ec_core::workload::KvOp;
use ec_replication::Parallelism;

use loadgen::{Chain, Planned};
use realwl::Engine;
use simwl::SimSpec;

/// Ops the layer replay drives through the automata.
const REPLAY_OPS: usize = 2_048;
/// Cluster builds per simulator run; `setup_s` is their median. A build
/// takes tens of microseconds, so this many cost a few milliseconds.
const SIM_BUILDS: usize = 200;
/// Minimum serving passes per simulator run.
const MIN_REPS: usize = 3;
/// Idle ticks a traced simulator pass steps after convergence.
const IDLE_TICKS: u64 = 2_000;
/// Load of one open-loop window (125 ops at 500 op/s). Each window runs on
/// a fresh deployment and a run reports the median over its windows. The
/// windows are short because a window's outcome is all or nothing on the
/// real engines: their promote timers starve under load, so nothing is
/// applied until a gap of one timer tick lets a timer fire, and a busy host
/// opens such gaps about once a second. In a short window most runs hold
/// the stall throughout, whatever the host does. The price is that a stall
/// longer than a window reads the same as one a window long; the traced
/// run's window sweep (`SWEEP`) shows how long it really lasts.
const WINDOW: Duration = Duration::from_millis(250);
/// Load lengths of the traced run's window sweep, one window each; the
/// longest gives the `runtime.long_*` metrics.
const SWEEP: [Duration; 3] = [
    Duration::from_millis(500),
    Duration::from_millis(1_000),
    Duration::from_millis(2_000),
];
/// Windows per p99 block: 1,000 samples, so ten lie beyond the p99. A run
/// reports the median of its blocks' p99s.
const BLOCK: usize = 8;
/// Deterministic counts recorded for a few seeds (see README.md).
const FINGERPRINTS: &str = include_str!("../fingerprints.jsonl");

#[derive(Clone, Copy, Debug)]
enum Workload {
    Sim(SimSpec),
    Real(Engine),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "sim-history" => Workload::Sim(SimSpec::mix(false)),
        "sim-compact" => Workload::Sim(SimSpec::mix(true)),
        "net-eventual" => Workload::Real(Engine::Net),
        "thread-eventual" => Workload::Real(Engine::Thread),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Metric values with their units, by name.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The outcome of one run.
struct Outcome {
    correct: Result<(), String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    context: Vec<(&'static str, String)>,
}

impl Outcome {
    fn failed(reason: String) -> Self {
        Outcome {
            correct: Err(reason),
            attempted: 1,
            failed: 1,
            metrics: Metrics::new(),
            context: Vec::new(),
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn workers() -> Parallelism {
    Parallelism::Workers(parallelism())
}

fn q(samples: &[f64], quantile: f64) -> f64 {
    stats::quantile(samples, quantile).unwrap_or(0.0)
}

fn med(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// Scratch directory of this run, inside the working directory.
fn scratch(workload: &str) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()))
}

/// The deterministic counts of a simulator pass, as one JSON line.
fn fingerprint_line(workload: &str, seed: u64, c: &simwl::Counts) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"ops\": {}, \"messages\": {}, \
         \"bytes\": {}, \"timer_fires\": {}, \"updates\": {}, \"sync_pulls\": {}, \
         \"converged_at\": {}, \"deliver_p50_ticks\": {}, \"deliver_p99_ticks\": {}, \
         \"snapshot_hash\": {}}}",
        c.ops,
        c.messages,
        c.bytes,
        c.timer_fires,
        c.updates,
        c.sync_pulls,
        c.converged_at,
        c.deliver_ticks.0,
        c.deliver_ticks.1,
        c.snapshot_hash
    )
}

/// Whether `fingerprints.jsonl` lists this workload and seed, and if so
/// whether the run reproduced it.
fn recorded_fingerprint(line: &str, workload: &str, seed: u64) -> &'static str {
    let key = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, ");
    match FINGERPRINTS.lines().find(|l| l.starts_with(&key)) {
        None => "not recorded",
        Some(recorded) if recorded == line => "matches",
        Some(_) => "differs",
    }
}

// ---------------------------------------------------------------------------
// simulator workloads
// ---------------------------------------------------------------------------

struct SimPrep {
    ops: Vec<KvOp>,
    plan: Vec<Planned>,
    expected: Vec<Vec<u8>>,
    /// The sequential-stepping pass: its snapshot hash is what every
    /// Workers pass must reproduce, its counts are the fingerprint.
    sequential: simwl::Served,
}

fn sim_prepare(spec: &SimSpec, seed: u64) -> Result<SimPrep, String> {
    let ops = simwl::ops(seed);
    let plan = loadgen::plan(&ops, spec.shards, simwl::REPLICAS, Chain::PerKey);
    let expected = simwl::expected(&ops, &plan, spec.shards);
    let sequential = simwl::serve(spec, seed, &ops, &plan, Parallelism::Sequential, 0);
    simwl::check(&sequential, &expected, None).map_err(|e| format!("sequential pass: {e}"))?;
    Ok(SimPrep {
        ops,
        plan,
        expected,
        sequential,
    })
}

/// Times `SIM_BUILDS` cluster builds (the simulator workloads' set-up).
fn sim_builds(spec: &SimSpec, seed: u64) -> Vec<f64> {
    (0..SIM_BUILDS)
        .map(|_| {
            let started = Instant::now();
            let cluster = std::hint::black_box(spec.build(seed, Parallelism::Sequential));
            let built = started.elapsed().as_secs_f64();
            drop(cluster);
            built
        })
        .collect()
}

impl SimPrep {
    /// A timed pass. Passes step the shards sequentially: with
    /// `Workers(2)` on a 2-vCPU guest every step waits for the slower
    /// worker, and a busy host swung the rate 8k–23k op/s between runs
    /// where sequential stepping held within a tenth. Parallel stepping is
    /// checked in every run and timed as `shard.parallel_speedup`.
    fn serve(&self, spec: &SimSpec, seed: u64, idle_ticks: u64) -> simwl::Served {
        simwl::serve(
            spec,
            seed,
            &self.ops,
            &self.plan,
            Parallelism::Sequential,
            idle_ticks,
        )
    }

    /// A pass with `Parallelism::Workers(available_parallelism)`.
    fn serve_workers(&self, spec: &SimSpec, seed: u64) -> simwl::Served {
        simwl::serve(spec, seed, &self.ops, &self.plan, workers(), 0)
    }

    fn check(&self, served: &simwl::Served) -> Result<(), String> {
        simwl::check(served, &self.expected, Some(self.sequential.snapshot_hash))
    }

    fn ops_per_s(&self, served: &simwl::Served) -> f64 {
        self.ops.len() as f64 / served.serving_s()
    }
}

fn sim_run(name: &str, spec: &SimSpec, seed: u64, seconds: u64) -> Outcome {
    let prep = match sim_prepare(spec, seed) {
        Ok(prep) => prep,
        Err(e) => return Outcome::failed(e),
    };
    let setup = sim_builds(spec, seed);
    // an untimed Workers pass: the parallel-stepping check, and it grows
    // the allocator's arenas before the timed passes
    let mut correct = prep.check(&prep.serve_workers(spec, seed));
    let (mut ops_s, mut p50, mut p99, mut local) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(seconds) || ops_s.len() < MIN_REPS {
        let s = prep.serve(spec, seed, 0);
        if let Err(e) = prep.check(&s) {
            correct = Err(e);
        }
        failed += s.failed;
        ops_s.push(prep.ops_per_s(&s));
        p50.push(q(&s.visible_ms, 0.5));
        p99.push(q(&s.visible_ms, 0.99));
        local.push(q(&s.local_ms, 0.5));
    }
    let mut metrics = Metrics::new();
    metrics.insert("visible_p50_ms", (med(&p50), "ms"));
    metrics.insert("visible_p99_ms", (med(&p99), "ms"));
    metrics.insert("local_p50_ms", (med(&local), "ms"));
    metrics.insert("ops_per_s", (med(&ops_s), "1/s"));
    metrics.insert("setup_s", (med(&setup), "s"));
    metrics.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    let line = fingerprint_line(name, seed, &prep.sequential.counts);
    let context = vec![
        ("ops_per_pass", prep.ops.len().to_string()),
        ("passes", ops_s.len().to_string()),
        ("ops_per_s_per_pass", json_list(&ops_s)),
        ("setups", setup.len().to_string()),
        (
            "fingerprint_vs_recorded",
            json_str(recorded_fingerprint(&line, name, seed)),
        ),
        ("fingerprint", line),
    ];
    Outcome {
        correct,
        attempted: (ops_s.len() * prep.ops.len()) as u64,
        failed,
        metrics,
        context,
    }
}

fn sim_trace(name: &str, spec: &SimSpec, seed: u64, seconds: u64) -> Outcome {
    let prep = match sim_prepare(spec, seed) {
        Ok(prep) => prep,
        Err(e) => return Outcome::failed(e),
    };
    // untraced, traced and Workers passes rotate; the overhead compares the
    // first two kinds' medians, the speedup the first and the third, and
    // the layer numbers come from the last pass of each kind
    let mut correct = Ok(());
    let (mut untraced_ops_s, mut traced_ops_s, mut workers_ops_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut last = None;
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(seconds) || traced_ops_s.len() < 2 {
        let parallel = prep.serve_workers(spec, seed);
        let untraced = prep.serve(spec, seed, 0);
        trace::start();
        let traced = prep.serve(spec, seed, IDLE_TICKS);
        let spans = trace::stop();
        for pass in [&parallel, &untraced, &traced] {
            if let Err(e) = prep.check(pass) {
                correct = Err(e);
            }
            failed += pass.failed;
        }
        workers_ops_s.push(prep.ops_per_s(&parallel));
        untraced_ops_s.push(prep.ops_per_s(&untraced));
        traced_ops_s.push(prep.ops_per_s(&traced));
        last = Some((untraced, traced, spans));
    }
    let Some((untraced, traced, spans)) = last else {
        return Outcome::failed("no traced pass ran".into());
    };
    let passes = traced_ops_s.len();
    let overhead = (med(&untraced_ops_s) / med(&traced_ops_s) - 1.0) * 100.0;
    let speedup = med(&workers_ops_s) / med(&untraced_ops_s);

    let dir = scratch(name);
    let inputs = replay::Inputs {
        ops: &prep.ops[..REPLAY_OPS.min(prep.ops.len())],
        spacing: 1,
        chain: Chain::PerKey,
        etob: spec.etob,
    };
    let layers = replay_layers(&inputs, &dir).unwrap_or_else(|e| {
        correct = Err(e);
        replay::Metrics::new()
    });
    let _ = std::fs::remove_dir_all(&dir);

    let n = prep.ops.len() as f64;
    let path = path_ms(&layers, false, false);
    let summary = trace::summarize(&spans);
    let mut m = facade_metrics(&summary);
    m.insert(
        "cluster.applied_busy_pct",
        (
            busy_pct(&summary, "cluster.applied", traced.serving_s()),
            "%",
        ),
    );
    m.insert("cluster.deploy_s", (traced.build_s, "s"));
    m.insert("cluster.finish_s", (traced.finish_s, "s"));
    insert_shard_metrics(&mut m, &untraced, speedup);
    insert_sim_counts(&mut m, &prep.sequential.counts);
    insert_layers(&mut m, &layers);
    m.insert(
        "runtime.timer_fires_per_s_load",
        (traced.timer_fires_per_s.0, "1/s"),
    );
    m.insert(
        "runtime.timer_fires_per_s_idle",
        (traced.timer_fires_per_s.1, "1/s"),
    );
    m.insert(
        "runtime.wait_ms_p50",
        (q(&untraced.visible_ms, 0.5) - path, "ms"),
    );
    // the whole pre-submitted mix is one long load
    m.insert(
        "runtime.long_first_visible_ms",
        (first_visible(&traced.visible_ms), "ms"),
    );
    m.insert(
        "runtime.long_visible_p50_ms",
        (q(&traced.visible_ms, 0.5), "ms"),
    );
    m.insert(
        "storage.disk_bytes_per_op",
        (layer(&layers, "storage.replay_disk_bytes_per_op"), "B"),
    );
    m.insert(
        "transport.messages_per_op",
        (untraced.counts.messages as f64 / n, "count"),
    );
    m.insert(
        "transport.bytes_per_op",
        (untraced.counts.bytes as f64 / n, "B"),
    );
    m.insert("transport.malformed_frames", (0.0, "count"));
    m.insert("loadgen.lag_p99_ms", (q(&traced.send_ms, 0.99), "ms"));
    m.insert("loadgen.lag_max_ms", (q(&traced.send_ms, 1.0), "ms"));
    m.insert("trace.overhead_pct", (overhead, "%"));
    let context = vec![
        ("passes_per_kind", passes.to_string()),
        ("untraced_ops_per_s", json_list(&untraced_ops_s)),
        ("traced_ops_per_s", json_list(&traced_ops_s)),
        ("workers_ops_per_s", json_list(&workers_ops_s)),
        ("trace_overhead_pct", json_num(overhead)),
        ("spans", spans.len().to_string()),
        ("replay_ops", inputs.ops.len().to_string()),
        ("replay_extra", layers_json(&layers)),
        (
            "fingerprint",
            fingerprint_line(name, seed, &prep.sequential.counts),
        ),
    ];
    Outcome {
        correct,
        attempted: (3 * passes * prep.ops.len()) as u64,
        failed,
        metrics: m,
        context,
    }
}

// ---------------------------------------------------------------------------
// real-engine workloads
// ---------------------------------------------------------------------------

/// One open-loop window: a fresh deployment, `load` of load, drain, stop,
/// check. Returns the window's run and its setup time.
fn window(
    engine: Engine,
    seed: u64,
    dir: &Path,
    tag: &str,
    load: Duration,
) -> Result<(realwl::LoadRun, realwl::Setup), String> {
    let d = realwl::setup(engine, dir.join(tag))?;
    let setup = d.timing();
    Ok((realwl::load(d, seed, load), setup))
}

/// Every window's samples together.
fn pooled(runs: &[realwl::LoadRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.visible_ms.iter().copied())
        .collect()
}

/// The p99 of each block of `BLOCK` consecutive windows, and whether the
/// windows were correct and every block's sample supports its p99.
fn block_p99(runs: &[realwl::LoadRun]) -> (Vec<f64>, Result<(), String>) {
    let mut correct = runs.iter().try_for_each(|r| r.correct.clone());
    let mut p99 = Vec::new();
    for block in runs.chunks(BLOCK) {
        let samples = pooled(block);
        if correct.is_ok() && !stats::supports(samples.len(), 0.99) {
            correct = Err(format!(
                "{} visible ops cannot support a p99",
                samples.len()
            ));
        }
        p99.push(q(&samples, 0.99));
    }
    (p99, correct)
}

/// Whether to run another window after `done` windows started at
/// `started`: runs go in whole blocks, at least one, while another block
/// at the mean window time so far still ends within `seconds`. A window
/// takes longer than its load (deploy, warm-up, drain, stop), so the
/// count follows the wall time, not the load time.
fn more_windows(started: Instant, done: usize, seconds: u64) -> bool {
    if done == 0 || !done.is_multiple_of(BLOCK) {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    elapsed * (done + BLOCK) as f64 / done as f64 <= seconds as f64
}

fn real_run(name: &str, engine: Engine, seed: u64, seconds: u64) -> Outcome {
    let dir = scratch(name);
    let result = (|| -> Result<_, String> {
        let mut runs = Vec::new();
        let mut setups = Vec::new();
        let started = Instant::now();
        while more_windows(started, runs.len(), seconds) {
            let tag = format!("window{}", runs.len());
            let (run, setup) = window(engine, seed, &dir, &tag, WINDOW)?;
            runs.push(run);
            setups.push(setup);
        }
        Ok((runs, setups))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (runs, setups) = match result {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let per = |f: &dyn Fn(&realwl::LoadRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let p50 = per(&|r| q(&r.visible_ms, 0.5));
    let (p99, correct) = block_p99(&runs);
    let mut metrics = Metrics::new();
    metrics.insert("visible_p50_ms", (med(&p50), "ms"));
    metrics.insert("visible_p99_ms", (med(&p99), "ms"));
    metrics.insert("local_p50_ms", (med(&per(&|r| q(&r.local_ms, 0.5))), "ms"));
    metrics.insert("ops_per_s", (med(&per(&|r| r.ops_per_s)), "1/s"));
    metrics.insert(
        "setup_s",
        (
            med(&setups.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
            "s",
        ),
    );
    metrics.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    let context = vec![
        ("offered_rate_per_s", json_num(realwl::RATE)),
        ("window_s", json_num(WINDOW.as_secs_f64())),
        ("windows", runs.len().to_string()),
        ("visible_p50_ms_per_window", json_list(&p50)),
        ("visible_p99_ms_per_block", json_list(&p99)),
        (
            "samples_per_block",
            pooled(&runs[..BLOCK.min(runs.len())]).len().to_string(),
        ),
        (
            "highest_supported_percentile",
            stats::highest_supported(pooled(&runs).len()).map_or("null".into(), json_num),
        ),
        ("setups", setups.len().to_string()),
        (
            "loadgen_lag_max_ms",
            json_num(med(&per(&|r| q(&r.lag_ms, 1.0)))),
        ),
    ];
    Outcome {
        correct,
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics,
        context,
    }
}

/// What one window of the sweep showed, as a JSON object.
fn sweep_json(load: Duration, run: &realwl::LoadRun) -> String {
    format!(
        "{{\"load_s\": {}, \"first_visible_ms\": {}, \"visible_p50_ms\": {}, \"ops_per_s\": {}}}",
        json_num(load.as_secs_f64()),
        json_num(first_visible(&run.visible_ms)),
        json_num(q(&run.visible_ms, 0.5)),
        json_num(run.ops_per_s)
    )
}

/// Load start → the first op visible everywhere, ms. Every op is due at or
/// after the load's start, so this is the earliest visibility time.
fn first_visible(visible_ms: &[f64]) -> f64 {
    visible_ms.first().copied().unwrap_or(0.0)
}

fn real_trace(name: &str, engine: Engine, seed: u64, seconds: u64) -> Outcome {
    let dir = scratch(name);
    // untraced and traced windows alternate, at least one of each; then
    // one untraced window per sweep length
    let result = (|| -> Result<_, String> {
        let (mut untraced, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
        let mut spans = Vec::new();
        let started = Instant::now();
        while more_windows(started, setups.len(), seconds) {
            let tag = format!("window{}", setups.len());
            if setups.len() % 2 == 0 {
                let (run, setup) = window(engine, seed, &dir, &tag, WINDOW)?;
                untraced.push(run);
                setups.push(setup);
            } else {
                trace::start();
                let got = window(engine, seed, &dir, &tag, WINDOW);
                spans = trace::stop();
                let (run, setup) = got?;
                traced.push(run);
                setups.push(setup);
            }
        }
        let mut sweep = Vec::new();
        for (i, load) in SWEEP.into_iter().enumerate() {
            sweep.push((
                load,
                window(engine, seed, &dir, &format!("sweep{i}"), load)?.0,
            ));
        }
        Ok((untraced, traced, setups, spans, sweep))
    })();
    let (untraced, traced, setups, spans, sweep) = match result {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Outcome::failed(e);
        }
    };
    let all = || {
        untraced
            .iter()
            .chain(&traced)
            .chain(sweep.iter().map(|(_, run)| run))
    };
    let mut correct = all().try_for_each(|r| r.correct.clone());
    let p50 = |runs: &[realwl::LoadRun]| {
        med(&runs
            .iter()
            .map(|r| q(&r.visible_ms, 0.5))
            .collect::<Vec<_>>())
    };
    let (untraced_p50, traced_p50) = (p50(&untraced), p50(&traced));
    let overhead = (traced_p50 / untraced_p50 - 1.0) * 100.0;
    let (Some(u), Some(t), Some((_, long))) = (untraced.last(), traced.last(), sweep.last()) else {
        return Outcome::failed("no traced window ran".into());
    };

    // the session continued (each window's ops are a prefix of it) through
    // the simulator, for the deterministic counts and the shard layer (one
    // shard: these workloads do not shard), and through the layer replay
    let ops: Vec<KvOp> = loadgen::zipf_puts(seed, REPLAY_OPS, 1)
        .into_iter()
        .enumerate()
        .map(|(k, op)| KvOp {
            at: 10 + 2 * k as u64,
            ..op
        })
        .collect();
    let sim_spec = SimSpec {
        etob: EtobConfig::default(),
        shards: 1,
    };
    let plan = loadgen::plan(&ops, 1, realwl::REPLICAS, Chain::Session);
    let expected = simwl::expected(&ops, &plan, 1);
    let sequential = simwl::serve(&sim_spec, seed, &ops, &plan, Parallelism::Sequential, 0);
    let parallel = simwl::serve(&sim_spec, seed, &ops, &plan, workers(), 0);
    let sim_ok = simwl::check(&sequential, &expected, None)
        .and_then(|()| simwl::check(&parallel, &expected, Some(sequential.snapshot_hash)));
    if let Err(e) = sim_ok {
        correct = correct.and(Err(format!("simulated session: {e}")));
    }
    let inputs = replay::Inputs {
        ops: &ops,
        spacing: 2,
        chain: Chain::Session,
        etob: EtobConfig::default(),
    };
    let layers = replay_layers(&inputs, &dir.join("replay")).unwrap_or_else(|e| {
        correct = correct.clone().and(Err(e));
        replay::Metrics::new()
    });
    let _ = std::fs::remove_dir_all(&dir);

    let path = path_ms(&layers, engine == Engine::Net, true);
    let summary = trace::summarize(&spans);
    let mut m = facade_metrics(&summary);
    m.insert(
        "cluster.applied_busy_pct",
        (busy_pct(&summary, "cluster.applied", t.served_s), "%"),
    );
    m.insert(
        "cluster.deploy_s",
        (
            med(&setups.iter().map(|s| s.deploy_s).collect::<Vec<_>>()),
            "s",
        ),
    );
    let finishes: Vec<f64> = untraced.iter().chain(&traced).map(|r| r.finish_s).collect();
    m.insert("cluster.finish_s", (med(&finishes), "s"));
    let speedup = sequential.serving_s() / parallel.serving_s();
    insert_shard_metrics(&mut m, &sequential, speedup);
    insert_sim_counts(&mut m, &sequential.counts);
    insert_layers(&mut m, &layers);
    m.insert(
        "runtime.timer_fires_per_s_load",
        (t.timer_fires_per_s.0, "1/s"),
    );
    m.insert(
        "runtime.timer_fires_per_s_idle",
        (t.timer_fires_per_s.1, "1/s"),
    );
    m.insert("runtime.wait_ms_p50", (untraced_p50 - path, "ms"));
    m.insert(
        "runtime.long_first_visible_ms",
        (first_visible(&long.visible_ms), "ms"),
    );
    m.insert(
        "runtime.long_visible_p50_ms",
        (q(&long.visible_ms, 0.5), "ms"),
    );
    m.insert("storage.disk_bytes_per_op", (u.disk_bytes_per_op, "B"));
    m.insert("transport.messages_per_op", (u.transport.0, "count"));
    m.insert("transport.bytes_per_op", (u.transport.1, "B"));
    m.insert("transport.malformed_frames", (u.transport.2, "count"));
    m.insert("loadgen.lag_p99_ms", (q(&t.lag_ms, 0.99), "ms"));
    m.insert("loadgen.lag_max_ms", (q(&t.lag_ms, 1.0), "ms"));
    m.insert("trace.overhead_pct", (overhead, "%"));
    let sweep_list: Vec<String> = sweep.iter().map(|(l, r)| sweep_json(*l, r)).collect();
    let context = vec![
        ("offered_rate_per_s", json_num(realwl::RATE)),
        ("window_s", json_num(WINDOW.as_secs_f64())),
        ("windows_per_kind", traced.len().to_string()),
        ("untraced_visible_p50_ms", json_num(untraced_p50)),
        ("traced_visible_p50_ms", json_num(traced_p50)),
        ("trace_overhead_pct", json_num(overhead)),
        ("window_sweep", format!("[{}]", sweep_list.join(", "))),
        ("spans", spans.len().to_string()),
        ("replay_ops", inputs.ops.len().to_string()),
        ("replay_extra", layers_json(&layers)),
        (
            "sim_fingerprint",
            fingerprint_line(name, seed, &sequential.counts),
        ),
    ];
    Outcome {
        correct,
        attempted: all().map(|r| r.attempted).sum(),
        failed: all().map(|r| r.failed).sum(),
        metrics: m,
        context,
    }
}

/// Share of `wall_s` spent inside spans named `name`, %.
fn busy_pct(summary: &BTreeMap<&'static str, trace::LayerTimes>, name: &str, wall_s: f64) -> f64 {
    let busy_us: f64 = summary
        .get(name)
        .map_or(0.0, |t| t.durations_us.iter().sum());
    busy_us / 1e4 / wall_s.max(1e-9)
}

// ---------------------------------------------------------------------------
// per-layer helpers
// ---------------------------------------------------------------------------

fn replay_layers(inputs: &replay::Inputs<'_>, dir: &Path) -> Result<replay::Metrics, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut m = replay::etob_pass(inputs, dir)?;
    m.extend(replay::eventual_replica_pass(inputs)?);
    m.extend(replay::strong_replica_pass(inputs)?);
    Ok(m)
}

fn layer(layers: &replay::Metrics, name: &str) -> f64 {
    layers.get(name).copied().unwrap_or(0.0)
}

/// Replayed self time per op and replica along the delivery path of an
/// eventually consistent replica, ms: with `wire` the codec too (net
/// engine), with `durable` the storage layer too.
fn path_ms(layers: &replay::Metrics, wire: bool, durable: bool) -> f64 {
    // seconds per thousand ops is milliseconds per op
    let mut total = layer(layers, "state_machine.self_s_per_kop")
        + layer(layers, "etob.self_s_per_kop")
        + layer(layers, "replica.self_s_per_kop");
    if wire {
        total += layer(layers, "codec.self_s_per_kop");
    }
    if durable {
        total += layer(layers, "storage.self_s_per_kop");
    }
    total / replay::N as f64
}

fn facade_metrics(times: &BTreeMap<&'static str, trace::LayerTimes>) -> Metrics {
    let durations = |name: &str| {
        times
            .get(name)
            .map(|t| t.durations_us.clone())
            .unwrap_or_default()
    };
    let submit = durations("cluster.submit");
    let applied = durations("cluster.applied");
    let mut m = Metrics::new();
    m.insert("cluster.submit_us_p50", (q(&submit, 0.5), "us"));
    m.insert("cluster.submit_us_p99", (q(&submit, 0.99), "us"));
    m.insert("cluster.applied_us_p50", (q(&applied, 0.5), "us"));
    m
}

/// Shard-layer times of a timed pass, and the Workers ÷ Sequential rate.
fn insert_shard_metrics(m: &mut Metrics, pass: &simwl::Served, speedup: f64) {
    m.insert("shard.run_until_s", (pass.run_s, "s"));
    m.insert("shard.submit_batch_s", (pass.submit_s, "s"));
    m.insert("shard.finish_s", (pass.finish_s, "s"));
    m.insert("shard.parallel_speedup", (speedup, "x"));
}

fn insert_sim_counts(m: &mut Metrics, c: &simwl::Counts) {
    let ops = c.ops.max(1) as f64;
    m.insert("sim.messages_per_op", (c.messages as f64 / ops, "count"));
    m.insert(
        "sim.timer_fires_per_op",
        (c.timer_fires as f64 / ops, "count"),
    );
    m.insert("sim.converged_at_ticks", (c.converged_at as f64, "ticks"));
    m.insert("etob.updates_per_op", (c.updates as f64 / ops, "count"));
    m.insert(
        "etob.deliver_p50_ticks",
        (c.deliver_ticks.0 as f64, "ticks"),
    );
    m.insert(
        "etob.deliver_p99_ticks",
        (c.deliver_ticks.1 as f64, "ticks"),
    );
    m.insert("etob.sync_pulls", (c.sync_pulls as f64, "count"));
}

/// Replay metrics reported as per-layer metrics, with their units.
const LAYER_UNITS: [(&str, &str); 19] = [
    ("etob.on_input_us_p50", "us"),
    ("etob.on_message_us_p50", "us"),
    ("etob.on_timer_us_p50", "us"),
    ("etob.self_s_per_kop", "s"),
    ("etob.promotes_per_op", "count"),
    ("tob.on_message_us_p50", "us"),
    ("tob.self_s_per_kop", "s"),
    ("replica.self_s_per_kop", "s"),
    ("replica.outputs_per_op", "count"),
    ("replica.output_bytes_per_op", "B"),
    ("state_machine.apply_us_p50", "us"),
    ("state_machine.snapshot_us_p50", "us"),
    ("state_machine.snapshot_bytes", "B"),
    ("codec.encode_us_p50", "us"),
    ("codec.decode_us_p50", "us"),
    ("codec.bytes_per_op", "B"),
    ("storage.record_tail_us_p50", "us"),
    ("storage.checkpoint_ms_p50", "ms"),
    ("storage.checkpoints_per_kop", "count"),
];

fn insert_layers(m: &mut Metrics, layers: &replay::Metrics) {
    for (name, unit) in LAYER_UNITS {
        m.insert(name, (layer(layers, name), unit));
    }
}

/// The replay metrics not reported as per-layer metrics, as a JSON object.
fn layers_json(layers: &replay::Metrics) -> String {
    let extra: Vec<String> = layers
        .iter()
        .filter(|(name, _)| !LAYER_UNITS.iter().any(|(n, _)| n == name))
        .map(|(name, v)| format!("{}: {}", json_str(name), json_num(*v)))
        .collect();
    format!("{{{}}}", extra.join(", "))
}

// ---------------------------------------------------------------------------
// output
// ---------------------------------------------------------------------------

impl Outcome {
    fn print(&self, args: &Args) {
        for (name, (value, unit)) in &self.metrics {
            println!("{:<34} {:>22} {}", name, json_num(*value), unit);
        }
        let mut context = vec![
            ("workload", json_str(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("available_parallelism", parallelism().to_string()),
        ];
        context.extend(self.context.iter().cloned());
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        context.push(("failed_frac", json_num(failed_frac)));
        if let Err(e) = &self.correct {
            context.push(("error", json_str(e)));
        }
        let fields: Vec<String> = context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), v))
            .collect();
        println!("{{\"context\": {{{}}}}}", fields.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct.is_ok(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ec-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "ec-perfbench: unknown workload {:?} (sim-history, sim-compact, net-eventual, thread-eventual)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = match (w, args.trace) {
        (Workload::Sim(spec), false) => sim_run(&args.workload, &spec, args.seed, args.seconds),
        (Workload::Sim(spec), true) => sim_trace(&args.workload, &spec, args.seed, args.seconds),
        (Workload::Real(engine), false) => {
            real_run(&args.workload, engine, args.seed, args.seconds)
        }
        (Workload::Real(engine), true) => {
            real_trace(&args.workload, engine, args.seed, args.seconds)
        }
    };
    let _ = std::fs::remove_dir(".bench_tmp");
    outcome.print(&args);
    if let Err(e) = &outcome.correct {
        eprintln!("ec-perfbench: INCORRECT OUTPUT: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
