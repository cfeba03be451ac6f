//! `sitebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): one closed-loop run; prints every end-to-end
//! metric. Traced (`--trace 1`): the same run untraced and then with
//! observability, the tick-phase profiler and span recording on, plus
//! standalone calls into each crate; prints the per-layer metrics.
//! Both check correctness (checkpoint round trips, twins at the other
//! width, the workload's guard) and exit 1 on any failure. The last
//! stdout line is the JSON result.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dcsim::SimRng;
use dynamo::Datacenter;
use sitebench::host;
use sitebench::layers;
use sitebench::run::{run, Outcome, Plan, Target};
use sitebench::scenario::{Scale, Workload};
use sitebench::stats::{secs, Summary, Tracer};

const USAGE: &str = "usage: sitebench --workload <site_worst_case|site_steady|grid_faults_serial> \
     --seed <u64> --seconds <f64> --trace <0|1>";

/// Held-out seed: not used while the benchmark was tuned; kept for
/// confirming a claimed gain.
const HELD_OUT_SEED: u64 = 20_160_618;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    detail: String,
    /// In the JSON result, or printed only.
    json: bool,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    /// Failed operations: ticks, round trips, twin comparisons.
    failures: Vec<String>,
    /// Vacuity and traced-run guards that did not hold.
    guard_errors: Vec<String>,
}

impl Report {
    fn push(&mut self, json: bool, name: &str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            detail,
            json,
        });
    }

    /// A figure of the JSON result.
    fn put(&mut self, name: &str, value: f64, unit: &'static str, detail: impl Into<String>) {
        self.push(true, name, value, unit, detail.into());
    }

    /// Counts the run's operations and failures, and its guard verdict.
    fn absorb(&mut self, w: Workload, label: &str, o: &Outcome) {
        self.attempted += o.attempted;
        self.failures
            .extend(o.failures.iter().map(|f| format!("{label}: {f}")));
        if let Err(e) = w.guard(&o.observed) {
            self.guard_errors
                .push(format!("{label}: {} guard: {e}", w.name()));
        }
    }
}

/// Simulated 1 s ticks per second of `secs` (wall: the real-time
/// factor; CPU: per CPU-second the process spent stepping).
fn rate(secs: &[f64]) -> f64 {
    secs.len() as f64 / secs.iter().sum::<f64>()
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).p50
}

const MIB: f64 = (1u64 << 20) as f64;

/// Wall seconds of the measured ticks with the CPU time the hypervisor
/// stole meanwhile taken out, but never below the CPU time spread over
/// `width` workers. On a shared host steal swung the raw wall rate 3x
/// between runs; a stolen second on either worker stalls the whole
/// barrier-synchronised tick, so all of it comes out.
fn unstolen_wall_s(o: &Outcome, width: usize) -> f64 {
    let wall: f64 = secs(&o.ticks, false).iter().sum();
    let cpu: f64 = secs(&o.ticks, true).iter().sum();
    (wall - o.stolen_s).max(cpu / width as f64)
}

/// The bounded end-to-end figures. The real-time factor is wall time
/// with steal taken out, so it sees how well the tick uses its workers;
/// the other timings are process CPU time, which steal does not reach.
fn end_to_end(r: &mut Report, o: &Outcome, width: usize) {
    let cpu = secs(&o.ticks, true);
    let ticks = Summary::of(&cpu);
    r.put(
        "ticks_per_s",
        ticks.n as f64 / unstolen_wall_s(o, width),
        "1/s",
        format!("real-time factor, {:.3} s stolen taken out", o.stolen_s),
    );
    r.put(
        "ticks_per_cpu_s",
        rate(&cpu),
        "1/s",
        format!("{} timed ticks", ticks.n),
    );
    r.put("tick_cpu_ms_p50", ticks.p50 * 1e3, "ms", ticks.show(1e3, 3));
    let setup = Summary::of(&secs(&o.setup, true));
    r.put(
        "setup_s",
        setup.p50,
        "s",
        format!("CPU {}", setup.show(1.0, 4)),
    );
    let cp = &o.checkpoints;
    let write = Summary::of(&secs(&cp.write, true));
    r.put(
        "checkpoint_write_cpu_ms",
        write.p50 * 1e3,
        "ms",
        write.show(1e3, 2),
    );
    let restore = Summary::of(&secs(&cp.restore, true));
    r.put(
        "checkpoint_restore_cpu_ms",
        restore.p50 * 1e3,
        "ms",
        restore.show(1e3, 2),
    );
    let bytes: Vec<f64> = cp.bytes.iter().map(|&b| b as f64).collect();
    r.put(
        "snapshot_mib",
        median(&bytes) / MIB,
        "MiB",
        "exact, median over checkpoints",
    );
    r.put("peak_rss_mib", host::peak_rss_mib(), "MiB", "VmHWM");
}

/// Figures too exposed to neighbours on a shared host to bound: the
/// tick tail (CPU time per tick rose ~40% at p99 under contention, ~10%
/// at the median), the wall-time figures, and how much of the host the
/// run actually had. In the JSON result when `json`.
fn unbounded(r: &mut Report, o: &Outcome, json: bool) {
    let cpu_p99 = Summary::of(&secs(&o.ticks, true)).p99;
    let wall = secs(&o.ticks, false);
    let ticks = Summary::of(&wall);
    let total: f64 = wall.iter().sum();
    let stolen = o.stolen_s / (total * host::nproc() as f64);
    let cpu: f64 = secs(&o.ticks, true).iter().sum();
    let setup = median(&secs(&o.setup, false));
    let write = median(&secs(&o.checkpoints.write, false));
    let restore = median(&secs(&o.checkpoints.restore, false));
    for (name, value, unit, detail) in [
        (
            "tail.tick_cpu_ms_p99",
            cpu_p99 * 1e3,
            "ms",
            format!("n={}", ticks.n),
        ),
        (
            "wall.ticks_per_s_with_steal",
            rate(&wall),
            "1/s",
            "real-time factor, steal not taken out".to_string(),
        ),
        (
            "wall.tick_ms_p50",
            ticks.p50 * 1e3,
            "ms",
            ticks.show(1e3, 3),
        ),
        (
            "wall.tick_ms_p99",
            ticks.p99 * 1e3,
            "ms",
            format!("n={}", ticks.n),
        ),
        ("wall.setup_s", setup, "s", String::new()),
        ("wall.checkpoint_write_ms", write * 1e3, "ms", String::new()),
        (
            "wall.checkpoint_restore_ms",
            restore * 1e3,
            "ms",
            String::new(),
        ),
        (
            "host.steal_pct",
            100.0 * stolen,
            "%",
            "host CPU stolen while stepping".to_string(),
        ),
        (
            "host.cpu_util",
            cpu / total,
            "cpus",
            "process CPU per wall second while stepping".to_string(),
        ),
    ] {
        r.push(json, name, value, unit, detail);
    }
}

/// Printed for both modes but not in the JSON result: zero on healthy
/// runs, so no relative bound applies.
fn outcomes(r: &Report, o: &Outcome) -> String {
    let failed = r.failures.len() as f64 / r.attempted.max(1) as f64;
    format!(
        "failed_ops_frac {failed} ({} of {} ops)\n\
         sim breaker_trips {}  grid_violation_s {}  perf_loss_pct {:.4}  report_digest {:016x}",
        r.failures.len(),
        r.attempted,
        o.sim.breaker_trips,
        o.sim.grid_violation_s,
        o.sim.perf_loss_pct,
        o.sim.report_digest,
    )
}

fn counter(dc: &Datacenter, name: &str) -> u64 {
    dc.system()
        .observability()
        .registry()
        .counters()
        .find(|c| c.0 == name)
        .map_or(0, |c| c.2)
}

/// The traced run's layer figures.
fn per_layer(
    r: &mut Report,
    args: &Args,
    untraced: &Outcome,
    traced: &Outcome,
    dc: &Datacenter,
    tracer: &mut Tracer,
) -> String {
    let mut table = String::new();
    let obs = dc.system().observability();
    let profile = obs.tick_phase_profile();
    let ticks = traced.profiled_ticks;
    if !obs.is_enabled() {
        r.guard_errors
            .push("traced run: observability is off".into());
    }
    for &(phase, count, _) in &profile {
        if count != ticks {
            r.guard_errors.push(format!(
                "traced run: phase {phase} observed {count} ticks, {ticks} were stepped"
            ));
        }
    }
    let step_ms = traced.profiled_step_s / ticks.max(1) as f64 * 1e3;
    let phase_ms = |name: &str| {
        profile
            .iter()
            .find(|p| p.0 == name)
            .map_or(0.0, |p| p.2 / ticks.max(1) as f64 * 1e3)
    };
    let phase_sum: f64 = profile.iter().map(|p| phase_ms(p.0)).sum();
    if phase_sum <= 0.0 {
        r.guard_errors
            .push("traced run: all-zero tick-phase profile".into());
    }
    let _ = writeln!(
        table,
        "tick phases over {ticks} profiled ticks ({step_ms:.4} ms/step):"
    );
    for &(phase, _, _) in &profile {
        let ms = phase_ms(phase);
        let _ = writeln!(
            table,
            "  {phase:<16} {ms:>9.4} ms  {:>5.1}%",
            100.0 * ms / step_ms
        );
    }
    let unattributed = step_ms - phase_sum;
    let _ = writeln!(
        table,
        "  {:<16} {unattributed:>9.4} ms  {:>5.1}%",
        "unattributed",
        100.0 * unattributed / step_ms
    );
    for phase in [
        "fused_tile",
        "leaf_dispatch",
        "breaker_fold",
        "grid",
        "validator",
        "telemetry_merge",
    ] {
        r.put(
            &format!("dynamo.{phase}_ms"),
            phase_ms(phase),
            "ms",
            "per profiled tick",
        );
    }
    r.put(
        "dynamo.unattributed_ms",
        unattributed,
        "ms",
        "step wall minus phase sum",
    );
    let plain = rate(&secs(&untraced.ticks, true));
    let with = rate(&secs(&traced.ticks, true));
    r.put(
        "dynamo.trace_overhead_pct",
        100.0 * (plain / with - 1.0),
        "%",
        format!("untraced {plain:.2} vs traced {with:.2} ticks per CPU-second"),
    );
    r.put(
        "dynamo.settled_leaf_frac",
        traced.observed.settled_leaf_frac,
        "ratio",
        "mean over timed ticks",
    );
    let ran = counter(dc, "dynamo_leaf_cycles_total");
    let elided = counter(dc, "dynamo_leaf_cycles_elided_total");
    r.put(
        "dynamo.leaf_cycles_elided_frac",
        elided as f64 / (ran + elided).max(1) as f64,
        "ratio",
        format!("{elided} elided of {} due", ran + elided),
    );
    let stats = dc.fleet().stats();
    r.put(
        "dynamo.capped_servers",
        stats.capped_servers as f64,
        "count",
        "at run end",
    );
    let model = dc.fleet().bytes_per_tick().fused as f64;
    r.put(
        "dynamo.bytes_per_tick_model",
        model,
        "B",
        "model: fused-tick array bytes",
    );
    let tile_s = phase_ms("fused_tile") / 1e3;
    r.put(
        "dynamo.fused_tile_gbps",
        if tile_s > 0.0 {
            model / tile_s / 1e9
        } else {
            0.0
        },
        "GB/s",
        "computed bytes (model) over measured fused_tile time",
    );

    let mut rng = SimRng::seed_from(args.seed).split("layers");
    let leaf = layers::step_batch_ns(tracer, &mut rng, 160);
    let site = layers::step_batch_ns(tracer, &mut rng, 122_880);
    r.put(
        "serverpower.step_batch_ns_per_server_160",
        leaf,
        "ns",
        "160-server leaf batch",
    );
    r.put(
        "serverpower.step_batch_ns_per_server_122880",
        site,
        "ns",
        "122,880-server site batch",
    );
    let draw = layers::demand_draw_ns(tracer, &mut rng);
    r.put(
        "workloads.demand_draw_ns_per_server",
        draw,
        "ns",
        "utilization_with, 4096 servers",
    );
    let (leaf_us, cut_us, upper_us) = layers::controller_us(tracer, &mut rng);
    r.put(
        "dynamo_controller.leaf_cycle_us",
        leaf_us,
        "us",
        "160 agents, capping band",
    );
    r.put(
        "dynamo_controller.distribute_cut_us",
        cut_us,
        "us",
        "160 servers, 3 priorities",
    );
    r.put(
        "dynamo_controller.upper_cycle_us",
        upper_us,
        "us",
        "16 children, 2 offenders",
    );
    let (enc, dec) = layers::telemetry_codec_ns(tracer, &mut rng);
    r.put(
        "dynrpc.telemetry_encode_ns_per_event",
        enc,
        "ns",
        "768-event batch",
    );
    r.put(
        "dynrpc.telemetry_decode_ns_per_event",
        dec,
        "ns",
        "768-event batch",
    );
    // Per simulated second: the traced run's length depends on host speed.
    let stepped = dc.now().as_secs().max(1) as f64;
    for (name, family) in [
        ("dynrpc.calls_per_tick", "dynamo_rpc_calls_total"),
        ("dynrpc.drops_per_tick", "dynamo_rpc_drops_total"),
        ("dynrpc.timeouts_per_tick", "dynamo_rpc_timeouts_total"),
    ] {
        r.put(name, counter(dc, family) as f64 / stepped, "count", family);
    }
    let breaker = layers::breaker_step_ns(tracer, &mut rng);
    r.put(
        "powerinfra.breaker_step_ns",
        breaker,
        "ns",
        "RPP breaker at 60-98% load",
    );
    let threads = host::nproc();
    let pool = layers::pool_dispatch_us(tracer, threads);
    r.put(
        "dynpool.dispatch_us",
        pool,
        "us",
        format!("run_on round trip, width {threads}"),
    );

    let cp = &traced.checkpoints;
    let bytes: Vec<f64> = cp.bytes.iter().map(|&b| b as f64).collect();
    let mib = median(&bytes) / MIB;
    r.put(
        "dcsim.snap_encode_mib_per_s",
        mib / median(&cp.encode_s),
        "MiB/s",
        "workload state",
    );
    r.put(
        "dcsim.snap_decode_mib_per_s",
        mib / median(&cp.decode_s),
        "MiB/s",
        "workload state",
    );
    let prom: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .span("dynobs.prometheus_export", |_| obs.prometheus_text().len())
                .1
        })
        .collect();
    r.put(
        "dynobs.prometheus_export_ms",
        median(&prom) * 1e3,
        "ms",
        "full registry",
    );
    r.put(
        "dynobs.incidents",
        obs.incidents() as f64,
        "count",
        "incident triggers",
    );

    let econ = layers::econ_cycle_us(tracer);
    r.put(
        "dyngrid.econ_cycle_us",
        econ,
        "us",
        "curtailment-window sweep",
    );
    let grid = dc.grid().map(|g| g.summary());
    let g = |f: fn(&dynamo::GridSummary) -> u64| grid.as_ref().map_or(0.0, |s| f(s) as f64);
    r.put(
        "dyngrid.econ_cycles",
        g(|s| s.econ_cycles),
        "count",
        "0 without a grid layer",
    );
    r.put(
        "dyngrid.limit_changes",
        g(|s| s.limit_changes),
        "count",
        "0 without a grid layer",
    );
    r.put(
        "dyngrid.dcups_discharge_s",
        g(|s| s.discharge_secs),
        "s",
        "sim seconds",
    );

    let triad = tracer
        .span("host.stream_triad", |_| host::stream_triad(threads, 5))
        .0;
    r.put(
        "host.stream_triad_gbps",
        triad.gbps,
        "GB/s",
        format!(
            "{}-resident: 3 x {:.0} MiB arrays, {threads} threads",
            triad.residency(),
            triad.array_mib
        ),
    );
    r.put("host.llc_mib", triad.llc_mib, "MiB", "sysfs L3 size");

    r.put(
        "sim.breaker_trips",
        untraced.sim.breaker_trips as f64,
        "count",
        "at horizon",
    );
    r.put(
        "sim.grid_violation_s",
        untraced.sim.grid_violation_s as f64,
        "s",
        "at horizon",
    );
    r.put(
        "sim.perf_loss_pct",
        untraced.sim.perf_loss_pct,
        "%",
        "mean to horizon",
    );
    table
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    host::pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sitebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = host::nproc();
    let spec = w.spec(Scale::Full);
    let width = spec.width(nproc);
    let out_root = PathBuf::from(".bench_out");
    let out_dir = out_root.join(format!(
        "{}-seed{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    let (commit, dirty) = host::commit();
    let plan_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = Plan::for_workload(w, plan_seconds);
    println!(
        "# manifest {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{commit}\",\
         \"dirty\":\"{dirty}\",\"nproc\":{nproc},\"cpu\":\"{}\",\"llc_mib\":{},\"governor\":\"{}\",\
         \"rustc\":\"{}\",\"width\":{width},\"servers\":{},\"measured_secs\":{},\"checkpoints\":{},\
         \"repeats_per_checkpoint\":{},\"twin_ticks\":{},\"held_out_seed\":{HELD_OUT_SEED}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_escape(&host::cpu_model()),
        host::llc_bytes().map_or(0.0, |b| b as f64 / MIB),
        json_escape(&host::governor()),
        json_escape(host::rustc()),
        spec.servers(),
        plan.measured_secs,
        plan.checkpoints,
        plan.repeats,
        plan.twin_ticks,
    );
    println!("# why {}: {}", w.name(), w.why());

    let target = |traced| Target {
        spec: &spec,
        seed: args.seed,
        width,
        twin_width: if width > 1 { 1 } else { nproc.max(2) },
        traced,
        out_dir: out_dir.clone(),
    };
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let (untraced, _) = run(&target(false), &plan, &mut off);
    report.absorb(w, "untraced", &untraced);
    let mut table = String::new();
    if args.trace {
        let mut tracer = Tracer::new(true);
        let (traced, dc) = run(&target(true), &plan, &mut tracer);
        report.absorb(w, "traced", &traced);
        table = per_layer(&mut report, &args, &untraced, &traced, &dc, &mut tracer);
        let _ = writeln!(table, "span self times (ms): name, count, total, self");
        for (name, n, total, own) in tracer.self_times() {
            let _ = writeln!(table, "  {name:<36} {n:>7} {total:>12.3} {own:>12.3}");
        }
        let _ = std::fs::create_dir_all(&out_root);
        let spans = out_root.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        if let Err(e) = std::fs::write(&spans, tracer.chrome_json()) {
            eprintln!("sitebench: writing {}: {e}", spans.display());
        }
        unbounded(&mut report, &untraced, true);
    } else {
        end_to_end(&mut report, &untraced, width);
        unbounded(&mut report, &untraced, false);
    }
    let _ = std::fs::remove_dir_all(&out_dir);

    print!("{table}");
    for m in &report.metrics {
        println!(
            "{:<46} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
    println!("{}", outcomes(&report, &untraced));
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        report
            .guard_errors
            .push(format!("metric {} is not finite", m.name));
    }
    for f in report.failures.iter().chain(&report.guard_errors) {
        println!("FAILED {f}");
    }
    let correct = report.failures.is_empty() && report.guard_errors.is_empty();
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted.max(1),
        report.failures.len()
    );
    for (i, m) in report.metrics.iter().filter(|m| m.json).enumerate() {
        // Keeps the line valid JSON; the run is already marked failed.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
