//! The three workloads. [`run_pass`] runs every simulation of one
//! workload once, on this thread, with the sequential engine, and
//! returns what the pass measured and checked.

use std::collections::BTreeMap;

use experiments::figures::{attributed_timeline, traced_timeline};
use experiments::phase1::{attr_totals, FaultScenario};
use experiments::scale::scale_config;
use experiments::{events_dispatched_total, ClusterConfig, ClusterSim, RunScale};
use mendosus::{Campaign, FaultKind, FaultSpec};
use press::{CacheSyncImpl, MembershipImpl, PressVersion};
use simnet::fabric::NodeId;
use simnet::{AvailabilityCounter, LatencyHistogram, SimDuration, SimTime};

use crate::check::{conservation, fnv64, tallies, Outcome};
use crate::spans::Recorder;

const EXPERIMENTS: &str = "experiments";
const REPORT: &str = "report";
const TELEMETRY: &str = "telemetry";

/// Times each cluster is built per pass; `setup_s` takes the median.
const SETUP_REPEATS: usize = 3;

/// No request outlives its 2 s connect plus 6 s response deadline.
const DEADLINE_HORIZON_S: f64 = 8.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five PRESS versions on the paper test-bed, fault-free.
    Steady,
    /// Figures 2–5 at small scale with attribution, audit and reports.
    Faults,
    /// One N=64 fat-tree cluster with digests, gossip and a node crash.
    Scale64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Faults, Workload::Scale64];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Faults => "faults",
            Workload::Scale64 => "scale64",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulated length of one `run_until` step: long enough that a
    /// host hiccup of a few milliseconds cannot set the tail on its own.
    pub fn slice(self) -> SimDuration {
        match self {
            Workload::Steady => SimDuration::from_secs(1),
            Workload::Faults => SimDuration::from_secs(3),
            Workload::Scale64 => SimDuration::from_millis(250),
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass, less the reference ticks.
    pub wall_s: f64,
    /// Host seconds building and booting clusters.
    pub setup_s: f64,
    /// Host milliseconds of every `run_until` slice.
    pub slices_ms: Vec<f64>,
    /// One checked outcome per simulation.
    pub outcomes: Vec<Outcome>,
    /// Per-layer values (times in seconds, counts, ratios).
    pub layer: BTreeMap<String, f64>,
    /// Simulated client requests attempted and failed.
    pub attempts: u64,
    pub failures: u64,
    /// `steady`: mean |simulated − paper| / paper over Table 1, in %.
    pub tput_err_pct: Option<f64>,
    /// `faults`: host seconds for the figure runs with observability
    /// off (built directly) and on (through the figure entry points).
    pub obs_off_s: f64,
    pub obs_on_s: f64,
    /// `faults`: blind-audit verdict per run.
    pub audit: Vec<(String, bool)>,
    /// `(golden file, outcome id prefix, text)`: figure texts that must
    /// equal a golden at the reference seed.
    pub figure_texts: Vec<(&'static str, String, String)>,
    latency: LatencyHistogram,
    busy_sum: f64,
    busy_nodes: f64,
    sim_s: f64,
}

impl Pass {
    fn add(&mut self, key: &str, v: f64) {
        *self.layer.entry(key.to_string()).or_insert(0.0) += v;
    }
}

/// Runs one pass of `w`.
pub fn run_pass(w: Workload, seed: u64, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    let start = std::time::Instant::now();
    let ticks_before = rec.tick_seconds();
    let scoped = rec.scope("pass", None, |rec| match w {
        Workload::Steady => steady(seed, rec, &mut pass),
        Workload::Faults => faults(seed, rec, &mut pass),
        Workload::Scale64 => scale64(seed, rec, &mut pass),
    });
    if let Err(msg) = scoped {
        pass.outcomes
            .push(Outcome::panicked(&format!("{}/pass", w.name()), &msg));
    }
    pass.wall_s = start.elapsed().as_secs_f64() - (rec.tick_seconds() - ticks_before);
    derive_layer(&mut pass);
    pass
}

/// Counters summed over every simulation of a pass, by their
/// `metrics_snapshot` names.
const COUNTERS: [&str; 21] = [
    "tcp.data_segments_sent",
    "tcp.retransmissions",
    "tcp.aborts",
    "tcp.messages_delivered",
    "via.messages_sent",
    "via.credit_stalls",
    "via.completion_errors",
    "transport.timers_stale_suppressed",
    "press.served_local",
    "press.served_remote",
    "press.served_disk",
    "press.forward_timeouts",
    "press.dropped_deferred",
    "press.cache.sync_frames",
    "press.cache.digest_flushes",
    "press.gossip.pings",
    "press.gossip.ping_reqs",
    "press.gossip.updates_sent",
    "client.attempts",
    "client.successes",
    "client.request_timeouts",
];

/// What a directly driven simulation produced.
struct Direct {
    avail: AvailabilityCounter,
    events: u64,
    /// The metrics snapshot's text without its label line.
    metrics: String,
    /// Host seconds: build, run and report.
    host_s: f64,
    /// Mean served throughput over the Table 1 window (steady only).
    tput: f64,
}

/// Builds one cluster, runs it to `end` in equal slices, and checks and
/// fingerprints the result. `None` if it panicked (recorded as failed).
#[allow(clippy::too_many_arguments)]
fn direct(
    rec: &mut Recorder,
    pass: &mut Pass,
    w: Workload,
    id: &str,
    config: ClusterConfig,
    campaign: Campaign,
    seed: u64,
    end: SimTime,
) -> Option<Direct> {
    let version = config.version;
    let rate = config.rate;
    let actions = campaign.actions().len();
    let slice = w.slice();
    let slices = end.as_nanos() / slice.as_nanos();
    let scoped = rec.scope("simulation", Some(id), |rec| {
        // Set-up is short next to its noise: build the cluster a few
        // times, keep the last one and take the median build time. Each
        // discarded cluster is dropped before the next is built, so the
        // peak memory stays that of one cluster.
        let mut builds = Vec::with_capacity(SETUP_REPEATS);
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(old) = built.take() {
                rec.call(EXPERIMENTS, "drop", || drop::<ClusterSim>(old));
            }
            let (sim, t) = rec.call(EXPERIMENTS, "ClusterSim::with_campaign", || {
                ClusterSim::with_campaign(config.clone(), campaign.clone(), seed)
            });
            builds.push(t);
            built = Some(sim);
        }
        let mut sim = built.expect("at least one build");
        let setup = crate::median(&builds);
        let mut run = 0.0;
        for k in 1..=slices {
            let until = SimTime::ZERO + slice * k;
            let ((), t) = rec.call(EXPERIMENTS, "run_until", || sim.run_until(until));
            pass.slices_ms.push(t * 1e3);
            run += t;
        }
        let (report, t_report) = rec.call(EXPERIMENTS, "report", || sim.report());
        let (reg, t_snap) = rec.call(EXPERIMENTS, "metrics_snapshot", || sim.metrics_snapshot());
        let (text, _) = rec.call(TELEMETRY, "text_summary", || reg.text_summary(id));
        let events = sim.events_dispatched();
        let fabric = sim.fabric_mut().stats().clone();
        let tput = sim.mean_throughput(10.0, 40.0);
        rec.call(EXPERIMENTS, "drop", || drop(sim));

        pass.setup_s += setup;
        pass.add("experiments.setup_s", setup);
        pass.add("experiments.run_s", run);
        pass.add(&format!("experiments.run_s.{}", version.name()), run);
        pass.add("experiments.snapshot_s", t_report + t_snap);
        pass.add("simnet.events", events as f64);
        pass.add("simnet.fabric.delivered", fabric.delivered as f64);
        pass.add("simnet.fabric.lost", fabric.lost as f64);
        pass.add("mendosus.actions", actions as f64);
        for name in COUNTERS {
            pass.add(name, reg.counter(name) as f64);
        }
        for (name, busy) in reg.gauges() {
            if name.starts_with("cpu.busy_fraction.") {
                pass.busy_sum += busy;
                pass.busy_nodes += 1.0;
            }
        }
        pass.latency.merge(&report.latency);
        pass.sim_s += end.as_secs_f64();
        pass.attempts += report.availability.attempts;
        pass.failures += report.availability.failures();

        let metrics = text
            .split_once('\n')
            .map_or("", |(_, body)| body)
            .to_string();
        let mut fields = vec![("events", events.to_string())];
        fields.extend(tallies(&report.availability));
        fields.push(("metrics", format!("{:016x}", fnv64(&metrics))));
        let mut o = Outcome::new(id, &fields);
        if let Err(e) = conservation(&report.availability, rate, DEADLINE_HORIZON_S) {
            o.errors.push(e);
        }
        pass.outcomes.push(o);
        Direct {
            avail: report.availability,
            events,
            metrics,
            host_s: setup + run + t_report,
            tput,
        }
    });
    match scoped {
        Ok(d) => Some(d),
        Err(msg) => {
            pass.outcomes.push(Outcome::panicked(id, &msg));
            None
        }
    }
}

/// `steady`: each PRESS version on the paper test-bed at 1.06× its
/// Table 1 peak, prewarmed, 40 simulated seconds, no faults.
fn steady(seed: u64, rec: &mut Recorder, pass: &mut Pass) {
    let mut err_sum = 0.0;
    for v in PressVersion::ALL {
        let id = format!("steady/{}", v.name());
        let config = ClusterConfig::paper_defaults(v);
        let end = SimTime::from_secs(40);
        if let Some(d) = direct(
            rec,
            pass,
            Workload::Steady,
            &id,
            config,
            Campaign::none(),
            seed,
            end,
        ) {
            // Table 1's measurement window.
            err_sum += (d.tput - v.paper_throughput()).abs() / v.paper_throughput();
        }
    }
    pass.tput_err_pct = Some(100.0 * err_sum / PressVersion::ALL.len() as f64);
}

/// The runs behind Figures 2–5, in the order the figure entry points
/// run them.
const FIGURES: [(&str, &[(PressVersion, FaultKind)]); 4] = [
    (
        "fig2",
        &[
            (PressVersion::Tcp, FaultKind::LinkDown),
            (PressVersion::TcpHb, FaultKind::LinkDown),
            (PressVersion::Via5, FaultKind::LinkDown),
        ],
    ),
    (
        "fig3",
        &[
            (PressVersion::Tcp, FaultKind::NodeCrash),
            (PressVersion::TcpHb, FaultKind::NodeCrash),
            (PressVersion::Via5, FaultKind::NodeCrash),
        ],
    ),
    (
        "fig4",
        &[
            (PressVersion::Tcp, FaultKind::KernelAllocFail),
            (PressVersion::TcpHb, FaultKind::KernelAllocFail),
            (PressVersion::Via0, FaultKind::MemPinFail),
            (PressVersion::Via5, FaultKind::MemPinFail),
        ],
    ),
    (
        "fig5",
        &[
            (PressVersion::Tcp, FaultKind::BadParamNull),
            (PressVersion::Via0, FaultKind::BadParamNull),
            (PressVersion::Via5, FaultKind::BadParamNull),
        ],
    ),
];

fn slug(s: &str) -> String {
    s.replace(' ', "-")
}

/// Marks the outcomes pushed since `from` with `error`.
fn fail_since(pass: &mut Pass, from: usize, error: String) {
    for o in &mut pass.outcomes[from..] {
        o.errors.push(error.clone());
    }
}

/// `faults`: Figures 2–5 at small scale. Each figure runs twice: built
/// directly with observability off (the slices, the set-up time and the
/// "off" side of the telemetry pairing), then through
/// `attributed_timeline` with root-cause attribution on, followed by the
/// blind audit and the attributed HTML report. Fig3 runs a third time
/// with structured tracing on and is exported.
fn faults(seed: u64, rec: &mut Recorder, pass: &mut Pass) {
    for (fig, runs) in FIGURES {
        let mut off = Vec::new();
        for &(v, kind) in runs {
            let id = format!("faults/{fig}/{}/{}", v.name(), slug(kind.name()));
            let scenario = FaultScenario::quick(kind, NodeId(3));
            let end = SimTime::ZERO + scenario.run;
            let campaign = Campaign::single(scenario.fault);
            let d = direct(
                rec,
                pass,
                Workload::Faults,
                &id,
                ClusterConfig::small(v),
                campaign,
                seed,
                end,
            );
            off.push((id, d));
        }
        let off_events: u64 = off
            .iter()
            .filter_map(|(_, d)| d.as_ref())
            .map(|d| d.events)
            .sum();
        pass.obs_off_s += off
            .iter()
            .filter_map(|(_, d)| d.as_ref())
            .map(|d| d.host_s)
            .sum::<f64>();

        let first = pass.outcomes.len();
        let before = events_dispatched_total();
        let scoped = rec.scope("figure", Some(fig), |rec| {
            rec.call(EXPERIMENTS, "attributed_timeline", || {
                attributed_timeline(fig, RunScale::Small, seed, 1)
            })
        });
        let ((text, attributed), t_fig) = match scoped {
            Ok((Some(r), t)) => (r, t),
            Ok((None, _)) | Err(_) => {
                for (id, _) in &off {
                    pass.outcomes.push(Outcome::panicked(
                        &format!("{id}/attributed"),
                        "figure failed",
                    ));
                }
                continue;
            }
        };
        let on_events = events_dispatched_total() - before;
        pass.obs_on_s += t_fig;
        pass.add("experiments.figure_s", t_fig);
        let digest = format!("{:016x}", fnv64(&text));
        for (i, (run, attr)) in attributed.iter().enumerate() {
            let id = off
                .get(i)
                .map_or(format!("faults/{fig}/extra{i}"), |(id, _)| id.clone());
            let mut fields = tallies(&run.report.availability).to_vec();
            fields.push(("figure", digest.clone()));
            let mut o = Outcome::new(&format!("{id}/attributed"), &fields);
            let (ok, detail) = attr.conservation(&attr_totals(run));
            o.fail_if(!ok, || format!("attribution conservation: {detail}"));
            let same = off
                .get(i)
                .and_then(|(_, d)| d.as_ref())
                .map(|d| d.avail == run.report.availability);
            o.fail_if(same != Some(true), || {
                "request tallies differ with attribution on".to_string()
            });
            pass.outcomes.push(o);
        }
        if attributed.len() != runs.len() || on_events != off_events {
            fail_since(
                pass,
                first,
                format!(
                    "{fig}: attribution on ran {} simulations / {on_events} events, off ran {} / {off_events}",
                    attributed.len(),
                    runs.len()
                ),
            );
        }
        for (run, _) in &attributed {
            let (audit, t) = rec.call(REPORT, "audit_run", || report::audit_run(run));
            pass.add("report.audit_s", t);
            pass.audit.push((audit.label.clone(), audit.pass()));
            pass.add("report.audit_pass", f64::from(u8::from(audit.pass())));
        }
        let meta = report::ReportMeta {
            target: fig.to_string(),
            title: text.lines().next().unwrap_or(fig).trim().to_string(),
            scale: "small".to_string(),
            seed,
        };
        let (html, t) = rec.call(REPORT, "render_report_attributed", || {
            report::render_report_attributed(&meta, &attributed, &[])
        });
        pass.add("report.render_s", t);
        pass.add("report.html_bytes", html.len() as f64);
        if fig == "fig3" {
            pass.figure_texts.push((
                "golden_fig3_attr_small.txt",
                "faults/fig3/".to_string(),
                format!("{text}\n"),
            ));
            traced_fig3(seed, rec, pass, &off, off_events);
        }
    }
}

/// Fig3 again with structured tracing on, exported as Chrome JSON and
/// JSONL. Tracing must change neither the events nor the metrics.
fn traced_fig3(
    seed: u64,
    rec: &mut Recorder,
    pass: &mut Pass,
    off: &[(String, Option<Direct>)],
    off_events: u64,
) {
    let first = pass.outcomes.len();
    let before = events_dispatched_total();
    let scoped = rec.scope("figure", Some("fig3-traced"), |rec| {
        rec.call(EXPERIMENTS, "traced_timeline", || {
            traced_timeline("fig3", RunScale::Small, seed, 1)
        })
    });
    let ((text, traces), t_fig) = match scoped {
        Ok((Some(r), t)) => (r, t),
        Ok((None, _)) | Err(_) => {
            for (id, _) in off {
                pass.outcomes.push(Outcome::panicked(
                    &format!("{id}/traced"),
                    "traced figure failed",
                ));
            }
            return;
        }
    };
    let on_events = events_dispatched_total() - before;
    pass.add("experiments.figure_s", t_fig);
    for (i, t) in traces.iter().enumerate() {
        let id = off
            .get(i)
            .map_or(format!("faults/fig3/extra{i}"), |(id, _)| id.clone());
        let text = t.metrics.text_summary(&t.label);
        let metrics = text.split_once('\n').map_or("", |(_, body)| body);
        let o_fields = [
            ("trace_events", t.events.len().to_string()),
            ("metrics", format!("{:016x}", fnv64(metrics))),
        ];
        let mut o = Outcome::new(&format!("{id}/traced"), &o_fields);
        let same = off
            .get(i)
            .and_then(|(_, d)| d.as_ref())
            .map(|d| d.metrics == metrics);
        o.fail_if(same != Some(true), || {
            "metrics differ with tracing on".to_string()
        });
        pass.outcomes.push(o);
        pass.add("telemetry.trace_events", t.events.len() as f64);
    }
    if traces.len() != off.len() || on_events != off_events {
        fail_since(
            pass,
            first,
            format!(
                "fig3: tracing on ran {} simulations / {on_events} events, off ran {} / {off_events}",
                traces.len(),
                off.len()
            ),
        );
    }
    pass.figure_texts.push((
        "golden_fig3_small.txt",
        "faults/fig3/".to_string(),
        format!("{text}\n"),
    ));
    let (json, t_json) = rec.call(TELEMETRY, "chrome_trace_json", || {
        telemetry::chrome_trace_json(&traces)
    });
    let (jsonl, t_jsonl) = rec.call(TELEMETRY, "jsonl_log", || telemetry::jsonl_log(&traces));
    pass.add("telemetry.export_s", t_json + t_jsonl);
    pass.add("telemetry.export_bytes", (json.len() + jsonl.len()) as f64);
}

/// `scale64`: the `scale --small` sweep's N=64 point for TCP-PRESS-HB
/// with digests and gossip: cold caches, node 1 down from 10 s to 30 s,
/// 60 simulated seconds.
fn scale64(seed: u64, rec: &mut Recorder, pass: &mut Pass) {
    let config = scale_config(
        RunScale::Small,
        64,
        PressVersion::TcpHb,
        CacheSyncImpl::Digest,
        Some(MembershipImpl::Gossip),
    );
    let campaign = Campaign::single(FaultSpec::transient(
        FaultKind::NodeCrash,
        NodeId(1),
        SimTime::from_secs(10),
        SimDuration::from_secs(20),
    ));
    let id = "scale64/N64/TCP-PRESS-HB/digest/gossip";
    direct(
        rec,
        pass,
        Workload::Scale64,
        id,
        config,
        campaign,
        seed,
        SimTime::from_secs(60),
    );
}

/// Ratios derived from the pass's summed counters.
fn derive_layer(pass: &mut Pass) {
    let get = |p: &Pass, k: &str| p.layer.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let events = get(pass, "simnet.events");
    let derived = [
        ("simnet.events_per_sim_s", ratio(events, pass.sim_s)),
        (
            "simnet.host_ns_per_event",
            ratio(get(pass, "experiments.run_s") * 1e9, events),
        ),
        (
            "simnet.cpu_busy_mean",
            ratio(pass.busy_sum, pass.busy_nodes),
        ),
        (
            "tcp.delivered_per_segment",
            ratio(
                get(pass, "tcp.messages_delivered"),
                get(pass, "tcp.data_segments_sent"),
            ),
        ),
        (
            "press.ctrl_per_req",
            ratio(
                get(pass, "press.cache.sync_frames"),
                get(pass, "client.successes"),
            ),
        ),
        ("client.latency_p50_ms", pass.latency.quantile(0.50) * 1e3),
        ("client.latency_p99_ms", pass.latency.quantile(0.99) * 1e3),
        (
            "telemetry.overhead_pct",
            if pass.obs_off_s > 0.0 {
                100.0 * (pass.obs_on_s - pass.obs_off_s) / pass.obs_off_s
            } else {
                0.0
            },
        ),
    ];
    for (k, v) in derived {
        pass.layer.insert(k.to_string(), v);
    }
}
