//! Correctness checks. They look only at deterministic simulated
//! outputs — event counts, request tallies, metrics text, figure text —
//! and never at anything that contains host time.
//!
//! * For any seed: request conservation, attribution conservation, the
//!   same outputs with observability on and off, and the same outputs
//!   on every pass of a run.
//! * At a seed with a recorded fingerprint file
//!   (`fingerprints/seed<N>.txt`): every simulation's fingerprint line
//!   equals the recorded one.
//! * At the reference seed: the fig3 figure texts equal the repository's
//!   gated goldens byte for byte.

use std::collections::BTreeMap;

use simnet::AvailabilityCounter;

/// The seed the repository's goldens were produced with.
pub const REFERENCE_SEED: u64 = 2003;

/// One simulation's checked outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `workload/...` id, unique within a pass.
    pub id: String,
    /// `id key=value ...`: the deterministic fingerprint.
    pub line: String,
    /// Every check this simulation failed (empty = correct).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new(id: &str, fields: &[(&str, String)]) -> Self {
        let mut line = id.to_string();
        for (k, v) in fields {
            line.push_str(&format!(" {k}={v}"));
        }
        Outcome {
            id: id.to_string(),
            line,
            errors: Vec::new(),
        }
    }

    /// A simulation that panicked.
    pub fn panicked(id: &str, msg: &str) -> Self {
        Outcome {
            id: id.to_string(),
            line: format!("{id} panicked"),
            errors: vec![format!("panicked: {msg}")],
        }
    }

    pub fn fail_if(&mut self, bad: bool, what: impl FnOnce() -> String) {
        if bad {
            self.errors.push(what());
        }
    }
}

/// 64-bit FNV-1a, the digest of a text in a fingerprint line.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The request tallies as fingerprint fields.
pub fn tallies(a: &AvailabilityCounter) -> [(&'static str, String); 3] {
    [
        ("attempts", a.attempts.to_string()),
        ("successes", a.successes.to_string()),
        ("failures", a.failures().to_string()),
    ]
}

/// Request conservation: every issued request is served, failed or
/// still in flight, and no request outlives its deadline — so at most
/// the last `horizon_s` seconds of arrivals (with Poisson slack) can
/// still be open.
pub fn conservation(a: &AvailabilityCounter, rate: f64, horizon_s: f64) -> Result<(), String> {
    let closed = a.successes + a.failures();
    if closed > a.attempts {
        return Err(format!(
            "conservation: {} served + {} failed > {} issued",
            a.successes,
            a.failures(),
            a.attempts
        ));
    }
    let open = a.attempts - closed;
    let bound = rate * horizon_s * 1.25 + 100.0;
    if open as f64 > bound {
        return Err(format!(
            "conservation: {open} requests still open, bound {bound:.0}"
        ));
    }
    Ok(())
}

/// Marks every outcome whose line differs from the recorded line of the
/// same id (or has none recorded) in `reference`. Returns how many
/// outcomes were compared.
pub fn against_reference(outcomes: &mut [Outcome], reference: &str) -> usize {
    let recorded: BTreeMap<&str, &str> = reference
        .lines()
        .filter_map(|l| Some((l.split(' ').next()?, l)))
        .collect();
    for o in outcomes.iter_mut() {
        match recorded.get(o.id.as_str()) {
            Some(line) if *line == o.line => {}
            Some(line) => o.errors.push(format!(
                "fingerprint differs:\n  recorded {line}\n  measured {}",
                o.line
            )),
            None => o.errors.push("no recorded fingerprint".to_string()),
        }
    }
    outcomes.len()
}

/// `None` when `actual` equals `golden` byte for byte; otherwise the
/// first differing line.
pub fn golden_diff(actual: &str, golden: &str) -> Option<String> {
    if actual == golden {
        return None;
    }
    let (mut a, mut g) = (actual.lines(), golden.lines());
    for n in 1.. {
        match (a.next(), g.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return Some(format!(
                    "line {n}: golden {:?}, measured {:?}",
                    y.unwrap_or("<end>"),
                    x.unwrap_or("<end>")
                ))
            }
        }
    }
    unreachable!("the loop returns at the first difference")
}

/// Replaces the `workload` lines of a fingerprint file with `outcomes`'
/// lines, keeping the other workloads' lines.
pub fn merge_reference(existing: &str, workload: &str, outcomes: &[Outcome]) -> String {
    let prefix = format!("{workload}/");
    let mut out: String = existing
        .lines()
        .filter(|l| !l.starts_with(&prefix))
        .map(|l| format!("{l}\n"))
        .collect();
    for o in outcomes {
        out.push_str(&o.line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_are_matched_by_id() {
        let mut good = vec![Outcome::new("steady/A", &[("events", "7".into())])];
        assert_eq!(
            against_reference(&mut good, "steady/A events=7\nsteady/B events=1\n"),
            1
        );
        assert!(good[0].errors.is_empty());
        let mut bad = vec![Outcome::new("steady/A", &[("events", "8".into())])];
        against_reference(&mut bad, "steady/A events=7\n");
        assert_eq!(bad[0].errors.len(), 1);
        let mut missing = vec![Outcome::new("steady/C", &[])];
        against_reference(&mut missing, "steady/A events=7\n");
        assert_eq!(missing[0].errors, ["no recorded fingerprint"]);
    }

    #[test]
    fn merge_replaces_only_this_workload() {
        let merged = merge_reference(
            "faults/x a=1\nsteady/A events=7\n",
            "steady",
            &[Outcome::new("steady/A", &[("events", "9".into())])],
        );
        assert_eq!(merged, "faults/x a=1\nsteady/A events=9\n");
    }

    #[test]
    fn conservation_bounds_open_requests() {
        let mut a = AvailabilityCounter::new();
        a.attempts = 1000;
        a.successes = 990;
        a.request_timeouts = 5;
        assert!(conservation(&a, 100.0, 8.0).is_ok());
        a.successes = 1000;
        assert!(conservation(&a, 100.0, 8.0).is_err());
        a.successes = 0;
        assert!(conservation(&a, 10.0, 8.0).is_err());
    }

    #[test]
    fn golden_diff_names_the_first_difference() {
        assert_eq!(golden_diff("a\nb\n", "a\nb\n"), None);
        let d = golden_diff("a\nc\n", "a\nb\n").expect("differs");
        assert!(d.starts_with("line 2"), "{d}");
        assert!(golden_diff("a\nb", "a\nb\n").is_some());
    }
}
