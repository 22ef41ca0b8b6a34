//! Host-time spans around every call the benchmark makes into a layer.
//!
//! Every call is timed (the end-to-end metrics need the durations); a
//! span is kept only while recording is on, so the untraced passes pay
//! one `Instant::now` pair per call and nothing else. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! Between calls the recorder runs the host-speed reference (see
//! `reference`), outside every timed call; the ticks are spans of their
//! own layer, [`REFERENCE`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::reference::{Reference, TICK_EVERY};

/// The benchmark's own layer: scopes it opens around a pass or one
/// simulation, whose self time is the benchmark's own work.
pub const BENCH: &str = "bench";

/// The host-speed reference's ticks.
pub const REFERENCE: &str = "reference";

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    /// What was called (`"run_until"`, `"audit_run"`, ...).
    name: &'static str,
    /// The layer called into, or [`BENCH`].
    layer: &'static str,
    /// Index into [`Recorder::sims`] of the enclosing simulation.
    sim: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// Times calls and, while recording, keeps one [`Span`] per call.
pub struct Recorder {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    sims: Vec<String>,
    sim: Option<usize>,
    reference: Reference,
    /// When the last reference tick ended.
    last_tick: Instant,
    /// Host milliseconds of every tick so far.
    ticks_ms: Vec<f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            sims: Vec::new(),
            sim: None,
            reference: Reference::new(),
            last_tick: Instant::now(),
            ticks_ms: Vec::new(),
        }
    }

    /// Host milliseconds of every reference tick so far.
    pub fn ticks_ms(&self) -> &[f64] {
        &self.ticks_ms
    }

    /// Host seconds spent in reference ticks so far: the benchmark's
    /// own time, which a pass's wall time leaves out.
    pub fn tick_seconds(&self) -> f64 {
        self.ticks_ms.iter().sum::<f64>() / 1e3
    }

    /// Runs a reference tick when [`TICK_EVERY`] has passed since the
    /// last one ended.
    fn tick_if_due(&mut self) {
        if self.last_tick.elapsed() < TICK_EVERY {
            return;
        }
        let start_ns = self.now_ns();
        let ms = self.reference.tick();
        if self.recording {
            let i = self.push("tick", REFERENCE, start_ns);
            self.spans[i].end_ns = self.now_ns();
        }
        self.ticks_ms.push(ms);
        self.last_tick = Instant::now();
    }

    /// Turns span recording on or off for the calls that follow.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, layer: &'static str, start_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            layer,
            sim: self.sim,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    /// Calls `f`, a call into `layer`; returns its result and host
    /// seconds.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.recording {
            let end_ns = self.now_ns();
            let start_ns = end_ns.saturating_sub((secs * 1e9) as u64);
            let i = self.push(name, layer, start_ns);
            self.spans[i].end_ns = end_ns;
        }
        self.tick_if_due();
        (out, secs)
    }

    /// Runs `f` inside a benchmark scope labelled `sim` (a simulation id,
    /// or the pass). A panic inside `f` is caught and returned as `Err`,
    /// so one failed simulation is counted rather than ending the run.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        sim: Option<&str>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> Result<T, String> {
        let saved_sim = self.sim;
        let depth = self.open.len();
        if let Some(id) = sim {
            self.sim = Some(self.sims.len());
            self.sims.push(id.to_string());
        }
        let span = self.recording.then(|| {
            let start = self.now_ns();
            let i = self.push(name, BENCH, start);
            self.open.push(i);
            i
        });
        let out = catch_unwind(AssertUnwindSafe(|| f(self))).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        });
        self.open.truncate(depth);
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
        self.sim = saved_sim;
        out
    }

    /// Host seconds each layer spent in its own spans, net of the child
    /// spans they enclose.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The kept spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":{},\"spans\":[", quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sim = s.sim.map_or("null".to_string(), |k| quote(&self.sims[k]));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":{},\"layer\":{},\"sim\":{sim},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                quote(s.name),
                quote(s.layer),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.set_recording(true);
        rec.scope("pass", Some("sim0"), |rec| {
            rec.call("experiments", "work", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        })
        .expect("no panic");
        let own = rec.self_seconds();
        assert!(own["experiments"] >= 0.019, "{own:?}");
        assert!(own[BENCH] < own["experiments"], "{own:?}");
        let program = rec.spans.iter().filter(|s| s.layer != REFERENCE);
        assert_eq!(program.count(), 2);
        assert!(rec.to_json("w").contains("\"sim\":\"sim0\""));
    }

    #[test]
    fn a_panic_is_caught_and_the_scope_closed() {
        let mut rec = Recorder::new();
        rec.set_recording(true);
        let r: Result<(), String> = rec.scope("pass", None, |_| panic!("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(rec.open.is_empty());
    }
}
