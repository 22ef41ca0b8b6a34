//! The repository benchmark (see README.md next to this crate).
//!
//! ```text
//! perfbench --workload <steady|faults|scale64> [--seed N] [--seconds S]
//!           [--trace 0|1] [--record]
//! ```
//!
//! Repeats passes of one workload until `--seconds` of host time have
//! gone by, on one thread with the sequential engine, and checks every
//! simulated output (see `check`). Every host time it reports is scaled
//! to the speed of a reference host (see `reference`). With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` passes alternate between span
//! recording off and on, and it reports the per-layer metrics. Human
//! readable lines come first; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A full record of the
//! run, labelled with revision, host and toolchain, goes to `out/`.
//! `--record` writes this seed's fingerprints to `fingerprints/` instead
//! of checking them. Exits 1 when any output is incorrect, 2 on bad
//! arguments.

mod check;
mod reference;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

use check::{against_reference, golden_diff, merge_reference, REFERENCE_SEED};
use reference::REFERENCE_TICK_MS;
use spans::{quote, Recorder};
use workloads::{run_pass, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <steady|faults|scale64> [--seed N] \
                     [--seconds S] [--trace 0|1] [--record]";

/// Metrics a user of the simulator sees, reported with `--trace 0`.
/// The times are host times at the reference host's speed.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slice_ms_p50", "ms"),
    ("slice_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`, every one on every
/// workload (0 where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 58] = [
    // Exact simulated outputs: 0 on some workloads, so not end-to-end.
    ("req_fail_frac", "ratio"),
    ("tput_err_pct", "%"),
    ("experiments.setup_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.run_s.TCP-PRESS", "s"),
    ("experiments.run_s.TCP-PRESS-HB", "s"),
    ("experiments.run_s.VIA-PRESS-0", "s"),
    ("experiments.run_s.VIA-PRESS-3", "s"),
    ("experiments.run_s.VIA-PRESS-5", "s"),
    ("experiments.snapshot_s", "s"),
    ("experiments.figure_s", "s"),
    ("simnet.events", "count"),
    ("simnet.events_per_sim_s", "1/s"),
    ("simnet.host_ns_per_event", "ns"),
    ("simnet.fabric.delivered", "count"),
    ("simnet.fabric.lost", "count"),
    ("simnet.cpu_busy_mean", "ratio"),
    ("tcp.data_segments_sent", "count"),
    ("tcp.retransmissions", "count"),
    ("tcp.aborts", "count"),
    ("tcp.delivered_per_segment", "ratio"),
    ("via.messages_sent", "count"),
    ("via.credit_stalls", "count"),
    ("via.completion_errors", "count"),
    ("transport.timers_stale_suppressed", "count"),
    ("press.served_local", "count"),
    ("press.served_remote", "count"),
    ("press.served_disk", "count"),
    ("press.forward_timeouts", "count"),
    ("press.dropped_deferred", "count"),
    ("press.cache.sync_frames", "count"),
    ("press.ctrl_per_req", "ratio"),
    ("press.cache.digest_flushes", "count"),
    ("press.gossip.pings", "count"),
    ("press.gossip.ping_reqs", "count"),
    ("press.gossip.updates_sent", "count"),
    ("client.attempts", "count"),
    ("client.successes", "count"),
    ("client.request_timeouts", "count"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("mendosus.actions", "count"),
    ("telemetry.trace_events", "count"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "bytes"),
    ("telemetry.overhead_pct", "%"),
    ("report.audit_s", "s"),
    ("report.render_s", "s"),
    ("report.html_bytes", "bytes"),
    ("report.audit_pass", "count"),
    ("self_s.bench", "s"),
    ("self_s.experiments", "s"),
    ("self_s.report", "s"),
    ("self_s.telemetry", "s"),
    ("trace.overhead_s", "s"),
    // The run's own host, unscaled: the median reference tick of a
    // pass, the slowdown its host times were divided by, and its wall
    // time before scaling.
    ("host.tick_ms", "ms"),
    ("host.slowdown", "ratio"),
    ("host.wall_raw_s", "s"),
];

/// Whether a metric is a host time, which is reported scaled to the
/// reference host. Client latencies are simulated time; the `host.`
/// metrics are the run's own host, unscaled.
fn host_time(name: &str, unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "ns") && !name.starts_with("client.") && !name.starts_with("host.")
}

/// A slice tail is read at the slowest slice that still has this many
/// slower ones beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Steady,
        seed: REFERENCE_SEED,
        seconds: 20.0,
        trace: false,
        record: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The slices of a typical pass: each slice's median over the passes.
/// A host hiccup slows a slice in one pass, not the same slice in every
/// pass, so the tail of these medians is the workload's own slow
/// slices. `None` when the passes did not run the same slices (one of
/// them panicked) or there are none.
fn typical<'a>(passes: impl Iterator<Item = &'a [f64]>) -> Option<Vec<f64>> {
    let rows: Vec<&[f64]> = passes.collect();
    let n = rows.first()?.len();
    if rows.iter().any(|r| r.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect(),
    )
}

/// Largest minus smallest value.
fn range(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
        - values.iter().copied().fold(f64::MAX, f64::min)
}

/// The slowest slice with [`TAIL_BEYOND`] slower ones beyond it, and the
/// percentile that is.
fn tail(slices: &[f64]) -> (f64, f64) {
    let mut v = slices.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    (
        v[n - 1 - TAIL_BEYOND],
        100.0 * (1.0 - TAIL_BEYOND as f64 / n as f64),
    )
}

/// An on/off difference is resolved only when it exceeds the spread
/// between passes (and there are enough passes to see a spread).
fn resolved(passes: usize, spread: f64, difference: f64) -> &'static str {
    if passes < 3 || spread >= difference.abs() {
        "unresolved (the spread across passes exceeds it)"
    } else {
        "resolved"
    }
}

/// A memory figure of this process from `/proc/self/status`
/// (`VmHWM`, `VmRSS`), in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory: everything it reads or writes is here
/// or, for the goldens, in the repository around it.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn git_revision(root: &Path) -> String {
    Command::new("git")
        .arg(format!("--git-dir={}", root.join(".git").display()))
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Cross-pass and reference checks: every pass must reproduce the first
/// pass's fingerprints, the first pass must match the recorded
/// fingerprints for this seed (when a file exists), and at the
/// reference seed the figure texts must equal their goldens.
fn check_passes(passes: &mut [(bool, Pass)], args: &Args, notes: &mut Vec<String>) {
    let first: BTreeMap<String, String> = passes[0]
        .1
        .outcomes
        .iter()
        .map(|o| (o.id.clone(), o.line.clone()))
        .collect();
    for (_, pass) in passes.iter_mut().skip(1) {
        for o in &mut pass.outcomes {
            if first.get(&o.id) != Some(&o.line) {
                o.errors
                    .push("differs from the first pass of this run".to_string());
            }
        }
    }
    let dir = bench_dir();
    let rel = format!("fingerprints/seed{}.txt", args.seed);
    let file = dir.join(&rel);
    let recorded = std::fs::read_to_string(&file).unwrap_or_default();
    let outcomes = &mut passes[0].1.outcomes;
    if args.record {
        let merged = merge_reference(&recorded, args.workload.name(), outcomes);
        if let Err(e) = std::fs::create_dir_all(file.parent().expect("has parent"))
            .and_then(|()| std::fs::write(&file, merged))
        {
            outcomes[0]
                .errors
                .push(format!("could not write {rel}: {e}"));
        }
        notes.push(format!("recorded {} fingerprints in {rel}", outcomes.len()));
    } else if !recorded.is_empty() {
        let n = against_reference(outcomes, &recorded);
        notes.push(format!("compared {n} fingerprints with {rel}"));
    } else {
        notes.push(format!(
            "no fingerprints recorded for seed {}: invariants only",
            args.seed
        ));
    }
    if args.seed == REFERENCE_SEED {
        for (golden, prefix, text) in std::mem::take(&mut passes[0].1.figure_texts) {
            let path = dir.join("..").join("scripts").join(golden);
            let diff = match std::fs::read_to_string(&path) {
                Ok(g) => golden_diff(&text, &g),
                Err(e) => Some(format!("cannot read scripts/{golden}: {e}")),
            };
            match diff {
                None => notes.push(format!("scripts/{golden}: byte-identical")),
                Some(d) => {
                    for o in passes[0]
                        .1
                        .outcomes
                        .iter_mut()
                        .filter(|o| o.id.starts_with(&prefix))
                    {
                        o.errors.push(format!("{golden}: {d}"));
                    }
                }
            }
        }
    }
}

/// Divides every host time of `pass` by the host's slowdown while it
/// ran: its median reference tick over [`REFERENCE_TICK_MS`]. The host's
/// speed drifts within a run too, so each pass gets its own.
fn scale_to_reference(pass: &mut Pass, ticks_ms: &[f64]) {
    // Every pass calls into the program for far longer than a tick
    // interval, so there are ticks; unscaled if there are none.
    let tick = match ticks_ms {
        [] => REFERENCE_TICK_MS,
        ticks => median(ticks),
    };
    let slowdown = tick / REFERENCE_TICK_MS;
    for (k, unit) in PER_LAYER {
        if let Some(v) = pass.layer.get_mut(k).filter(|_| host_time(k, unit)) {
            *v /= slowdown;
        }
    }
    pass.layer.insert("host.tick_ms".to_string(), tick);
    pass.layer.insert("host.slowdown".to_string(), slowdown);
    pass.layer.insert("host.wall_raw_s".to_string(), pass.wall_s);
    pass.wall_s /= slowdown;
    pass.setup_s /= slowdown;
    for s in &mut pass.slices_ms {
        *s /= slowdown;
    }
}

/// Every metric of the run, end-to-end and per-layer, by name, from
/// passes already scaled to the reference host.
fn summarize(passes: &[(bool, Pass)], rec: &Recorder, rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let of = |f: &dyn Fn(&Pass) -> f64, traced: Option<bool>| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .filter(|(t, _)| traced.is_none_or(|want| *t == want))
            .map(|(_, p)| f(p))
            .collect();
        median(&v)
    };
    let untraced = Some(false);
    let p0 = &passes[0].1;
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_s", of(&|p| p.wall_s, untraced));
    metrics.insert("setup_s", of(&|p| p.setup_s, None));
    let slices = typical(passes.iter().map(|(_, p)| p.slices_ms.as_slice()))
        .unwrap_or_else(|| p0.slices_ms.clone());
    // Pooled over the workload's simulations: a median per simulation
    // sits in the gap between a fault window's cheap slices and the
    // costly ones around it whenever the two are about as many.
    metrics.insert("slice_ms_p50", median(&slices));
    metrics.insert("slice_ms_tail", tail(&slices).0);
    metrics.insert("peak_rss_mb", rss_mb);
    metrics.insert(
        "req_fail_frac",
        p0.failures as f64 / p0.attempts.max(1) as f64,
    );
    metrics.insert("tput_err_pct", p0.tput_err_pct.unwrap_or(0.0));
    for (k, _) in PER_LAYER {
        metrics
            .entry(k)
            .or_insert_with(|| of(&|p| p.layer.get(k).copied().unwrap_or(0.0), None));
    }
    let traced = passes.iter().filter(|(t, _)| *t).count();
    if traced > 0 {
        let slowdown = of(&|p| p.layer["host.slowdown"], Some(true));
        for (layer, s) in rec.self_seconds() {
            if let Some((k, _)) = PER_LAYER
                .iter()
                .find(|(k, _)| k.strip_prefix("self_s.") == Some(layer))
            {
                metrics.insert(k, s / traced as f64 / slowdown);
            }
        }
        metrics.insert(
            "trace.overhead_s",
            of(&|p| p.wall_s, Some(true)) - of(&|p| p.wall_s, untraced),
        );
    }
    metrics
}

/// The human-readable lines: slice and pairing notes, audit verdicts,
/// failures.
fn print_notes(
    w: Workload,
    passes: &[(bool, Pass)],
    metrics: &BTreeMap<&str, f64>,
    notes: &[String],
) {
    let p0 = &passes[0].1;
    let (tail_ms, tail_pct) = tail(&p0.slices_ms);
    println!(
        "note slices: {} per pass of {} ms simulated each; tail = p{tail_pct:.2} \
         ({TAIL_BEYOND} slices beyond it; first pass {tail_ms:.3} ms)",
        p0.slices_ms.len(),
        w.slice().as_nanos() / 1_000_000,
    );
    if w == Workload::Faults {
        let over: Vec<f64> = passes
            .iter()
            .map(|(_, p)| p.layer["telemetry.overhead_pct"])
            .collect();
        let (m, spread) = (median(&over), range(&over));
        println!(
            "note telemetry on/off overhead: median {m:.2}% over {} passes, spread {spread:.2} points: {}",
            over.len(),
            resolved(over.len(), spread, m)
        );
        let agree = p0.audit.iter().filter(|(_, ok)| *ok).count();
        println!(
            "note blind audit (recorded, not failed): {agree}/{} runs agree",
            p0.audit.len()
        );
        for (label, ok) in &p0.audit {
            println!(
                "note   audit {label}: {}",
                if *ok { "agree" } else { "disagree" }
            );
        }
    }
    if passes.iter().any(|(t, _)| *t) {
        let walls: Vec<f64> = passes.iter().map(|(_, p)| p.wall_s).collect();
        let (o, spread) = (metrics["trace.overhead_s"], range(&walls));
        println!(
            "note tracing overhead: {o:.3} s per pass, pass walls spread {spread:.3} s: {}",
            resolved(walls.len(), spread, o)
        );
    }
    for n in notes {
        println!("note {n}");
    }
    for o in passes.iter().flat_map(|(_, p)| &p.outcomes) {
        for e in &o.errors {
            println!("FAIL {}: {e}", o.id);
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for `which`.
fn metrics_json(which: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = which
        .iter()
        .map(|(k, unit)| {
            let v = Some(metrics[k]).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                quote(k),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            exit(2);
        }
    };
    let w = args.workload;
    // The reference's own memory, which `peak_rss_mb` leaves out: its
    // queue and table keep their sizes, so this is its share of the peak.
    let before_mb = status_mb("VmRSS");
    let mut rec = Recorder::new();
    let reference_mb = status_mb("VmRSS") - before_mb;
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let start = Instant::now();
    let min_passes = if args.trace { 2 } else { 1 };
    // Stop when another pass would overshoot the budget by more than
    // stopping now falls short of it.
    let mut pass_s = 0.0;
    let mut rss_mb = 0.0;
    while passes.len() < min_passes || start.elapsed().as_secs_f64() + pass_s / 2.0 < args.seconds {
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured within one process.
        let traced = args.trace && passes.len() % 2 == 1;
        rec.set_recording(traced);
        let ticks_before = rec.ticks_ms().len();
        let mut pass = run_pass(w, args.seed, &mut rec);
        scale_to_reference(&mut pass, &rec.ticks_ms()[ticks_before..]);
        pass_s = pass.wall_s;
        passes.push((traced, pass));
        if passes.len() == 1 {
            // The memory of one run of the workload: later passes reuse
            // the allocator's free lists, and their fragmentation would
            // make the peak depend on how many passes fit the budget.
            rss_mb = status_mb("VmHWM") - reference_mb;
        }
    }
    rec.set_recording(false);
    let total_s = start.elapsed().as_secs_f64();

    let mut notes = Vec::new();
    check_passes(&mut passes, &args, &mut notes);
    let attempted: usize = passes.iter().map(|(_, p)| p.outcomes.len()).sum();
    let failed = passes
        .iter()
        .flat_map(|(_, p)| &p.outcomes)
        .filter(|o| !o.errors.is_empty())
        .count();
    let correct = attempted > 0 && failed == 0;
    let metrics = summarize(&passes, &rec, rss_mb);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let traced_passes = passes.iter().filter(|(t, _)| *t).count();
    let labels = [
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("git_revision", git_revision(&bench_dir().join(".."))),
        ("host_cores", cores.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("engine", "sequential, jobs = 1".to_string()),
        ("passes", passes.len().to_string()),
        ("traced_passes", traced_passes.to_string()),
        ("measured_s", format!("{total_s:.3}")),
        ("reference_ticks", rec.ticks_ms().len().to_string()),
        ("reference_mb", format!("{reference_mb:.1}")),
    ];
    for (k, v) in &labels {
        println!("label {k} = {v}");
    }
    print_notes(w, &passes, &metrics, &notes);
    println!("note runs_failed_frac = {failed} / {attempted}");
    for (k, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        println!("metric {k} = {} {unit}", metrics[k]);
    }
    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(reported, &metrics)
    );

    // The full record of this run: labels, every pass's wall time and
    // every metric.
    let out = bench_dir().join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let label_json: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let walls: Vec<String> = passes
        .iter()
        .map(|(t, p)| format!("{{\"traced\": {t}, \"wall_s\": {:?}}}", p.wall_s))
        .collect();
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let record = format!(
        "{{\"labels\": {{{}}}, \"passes\": [{}], \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {}}}\n",
        label_json.join(", "),
        walls.join(", "),
        metrics_json(&all, &metrics)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), record))
        .and_then(|()| match traced_passes {
            0 => Ok(()),
            _ => std::fs::write(
                out.join(format!("{stem}-spans.json")),
                rec.to_json(w.name()),
            ),
        });
    if let Err(e) = written {
        eprintln!("could not write perfbench/out: {e}");
    }

    println!("{result}");
    if !correct {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real references pass, and a one-character change to a
    /// recorded fingerprint or to a golden fails: the check can fail.
    #[test]
    fn perturbed_references_fail_and_real_ones_pass() {
        let mut rec = Recorder::new();
        let pass = run_pass(Workload::Faults, REFERENCE_SEED, &mut rec);
        assert!(
            pass.outcomes.iter().all(|o| o.errors.is_empty()),
            "{:?}",
            pass.outcomes
        );

        let recorded = std::fs::read_to_string(bench_dir().join("fingerprints/seed2003.txt"))
            .expect("seed 2003 fingerprints are recorded");
        let mut real = pass.outcomes.clone();
        against_reference(&mut real, &recorded);
        assert!(real.iter().all(|o| o.errors.is_empty()), "{real:?}");

        let line = &pass.outcomes[0].line;
        let perturbed =
            recorded.replacen(line.as_str(), &line.replacen("events=", "events=1", 1), 1);
        assert_ne!(perturbed, recorded);
        let mut bad = pass.outcomes.clone();
        against_reference(&mut bad, &perturbed);
        let failed: Vec<&str> = bad
            .iter()
            .filter(|o| !o.errors.is_empty())
            .map(|o| o.id.as_str())
            .collect();
        assert_eq!(failed, [pass.outcomes[0].id.as_str()]);

        assert_eq!(pass.figure_texts.len(), 2);
        for (golden, _, text) in &pass.figure_texts {
            let path = bench_dir().join("../scripts").join(golden);
            let golden = std::fs::read_to_string(path).expect("golden exists");
            assert_eq!(golden_diff(text, &golden), None);
            let perturbed = golden.replacen("TCP-PRESS", "TCP-PRESZ", 1);
            assert!(golden_diff(text, &perturbed).is_some());
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text =
            std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = telemetry::json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn tail_has_ten_slices_beyond_it() {
        let slices: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&slices), (990.0, 99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let passes: [&[f64]; 3] = [&[1.0, 5.0], &[2.0, 1.0], &[3.0, 3.0]];
        assert_eq!(typical(passes.into_iter()), Some(vec![2.0, 3.0]));
        let ragged: [&[f64]; 2] = [&[1.0], &[1.0, 2.0]];
        assert_eq!(typical(ragged.into_iter()), None);
    }

    /// Host times are scaled to the reference host; simulated times,
    /// counts and the unscaled host readings are not.
    #[test]
    fn only_host_times_are_scaled() {
        let scaled: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .filter(|(k, unit)| host_time(k, unit))
            .map(|(k, _)| *k)
            .collect();
        for k in ["wall_s", "slice_ms_tail", "simnet.host_ns_per_event", "self_s.report"] {
            assert!(scaled.contains(&k), "{k}");
        }
        for k in ["peak_rss_mb", "client.latency_p99_ms", "host.wall_raw_s", "telemetry.overhead_pct"] {
            assert!(!scaled.contains(&k), "{k}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "faults",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Faults, 7, 3.0, true)
        );
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "steady", "--trace", "2"]).is_err());
    }
}
