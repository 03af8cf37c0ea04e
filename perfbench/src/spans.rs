//! The benchmark's own spans: one record per call the benchmark makes into
//! a layer's public function, kept in memory during the traced run and
//! written out as JSON lines when it ends. Nothing here reaches into the
//! program; the engine's internal phases come from its own telemetry.

use privateer_telemetry::json::{self, Json};
use privateer_telemetry::SpanEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The run this span belongs to; spans of one run share it.
    pub run: u64,
    /// Index of the span within its run.
    pub id: u32,
    /// The enclosing span (`None` for the run's root).
    pub parent: Option<u32>,
    /// What was called, e.g. `core::pipeline::privatize`.
    pub name: String,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

/// An in-memory span recorder for one run. Spans nest by call order:
/// [`SpanLog::enter`] opens a child of the innermost open span.
#[derive(Debug)]
pub struct SpanLog {
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// A fresh log for run `run`.
    pub fn new(run: u64) -> SpanLog {
        SpanLog {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans; every span must have been closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        self.spans
    }
}

/// Render spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.run, s.id, parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Parse the output of [`to_json_lines`].
///
/// # Errors
///
/// Describes the first line that is not a well-formed span record.
pub fn from_json_lines(text: &str) -> Result<Vec<Span>, String> {
    let num = |obj: &Json, key: &str, line: usize| {
        obj.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("line {line}: missing `{key}`"))
    };
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let obj = json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        let parent = match obj.get("parent") {
            Some(Json::Null) => None,
            Some(p) => Some(p.as_f64().ok_or(format!("line {}: bad parent", i + 1))? as u32),
            None => return Err(format!("line {}: missing `parent`", i + 1)),
        };
        spans.push(Span {
            run: num(&obj, "run", i + 1)?,
            id: num(&obj, "id", i + 1)? as u32,
            parent,
            name: obj
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("line {}: missing `name`", i + 1))?
                .to_string(),
            start_ns: num(&obj, "start_ns", i + 1)?,
            end_ns: num(&obj, "end_ns", i + 1)?,
        });
    }
    Ok(spans)
}

/// Check the span tree: each run has exactly one root, every parent
/// exists in the same run, and every child lies inside its parent's
/// interval.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let mut by_run: BTreeMap<u64, BTreeMap<u32, &Span>> = BTreeMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span `{}` ends before it starts", s.name));
        }
        by_run.entry(s.run).or_default().insert(s.id, s);
    }
    for (run, ids) in &by_run {
        let roots = ids.values().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return Err(format!("run {run} has {roots} root spans"));
        }
        for s in ids.values() {
            let Some(p) = s.parent else { continue };
            let parent = ids
                .get(&p)
                .ok_or_else(|| format!("span `{}` names missing parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span `{}` [{}, {}] escapes its parent `{}` [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        }
    }
    Ok(())
}

/// Self time per engine phase: each span's duration minus the part of
/// its interval covered by the spans nested directly inside it on the
/// same track (the thread that recorded them). Instants are ignored.
pub fn phase_self_ns(events: &[SpanEvent]) -> BTreeMap<&'static str, u64> {
    let mut by_track: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.dur_ns > 0) {
        by_track.entry(ev.track).or_default().push(ev);
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for mut evs in by_track.into_values() {
        // Parents before their children: earlier start first, and the
        // longer span first when two start together.
        evs.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        let mut self_ns: Vec<u64> = evs.iter().map(|e| e.dur_ns).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            while let Some(&top) = open.last() {
                if evs[top].ts_ns + evs[top].dur_ns <= ev.ts_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = open.last() {
                let end = (ev.ts_ns + ev.dur_ns).min(evs[top].ts_ns + evs[top].dur_ns);
                self_ns[top] = self_ns[top].saturating_sub(end - ev.ts_ns);
            }
            open.push(i);
        }
        for (ev, s) in evs.iter().zip(self_ns) {
            *totals.entry(ev.phase.name()).or_default() += s;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_telemetry::Phase;

    fn ev(phase: Phase, track: u32, ts_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            ts_ns,
            dur_ns,
            phase,
            track,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_track() {
        let events = [
            ev(Phase::Iteration, 1, 0, 100),
            ev(Phase::PrivRead, 1, 10, 20),
            ev(Phase::PrivWrite, 1, 50, 30),
            ev(Phase::Package, 1, 100, 5),
            // Another track overlapping in time is not a child.
            ev(Phase::Iteration, 2, 0, 40),
            ev(Phase::Misspec, 2, 5, 0),
        ];
        let t = phase_self_ns(&events);
        assert_eq!(t["iteration"], 50 + 40);
        assert_eq!(t["priv_read"], 20);
        assert_eq!(t["priv_write"], 30);
        assert_eq!(t["package"], 5);
        assert!(!t.contains_key("misspec"));
    }

    #[test]
    fn span_log_nests_and_round_trips() {
        let mut log = SpanLog::new(7);
        log.enter("run");
        log.time("a", || ());
        log.enter("b");
        log.time("c", || ());
        log.exit();
        log.exit();
        let spans = log.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        check_tree(&spans).unwrap();
        let back = from_json_lines(&to_json_lines(&spans)).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn check_tree_rejects_two_roots_and_escaping_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            run: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        };
        assert!(check_tree(&[span(0, None, 0, 10), span(1, None, 0, 10)]).is_err());
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(0), 5, 11)]).is_err());
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(3), 5, 6)]).is_err());
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(0), 5, 6)]).is_ok());
    }
}
