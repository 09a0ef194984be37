//! Spans recorded from outside the simulator: one per call into a
//! layer, kept in memory and written as a Chrome `trace_event` file
//! when the pass ends.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// An open span: where it sits in the tree (if it is being recorded)
/// and when it began. [`Recorder::exit`] returns its duration either
/// way, so the timed pass and the traced pass read the same clock at
/// the same places and differ only in what they keep.
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

/// An in-memory span tree. `enter`/`exit` nest like calls; `closed`
/// adds a span whose interval was measured elsewhere (the runner's
/// per-job offsets). Nothing is kept while `enabled` is false.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let at = start.duration_since(self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us: at,
                end_us: at,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { id, start }
    }

    /// Close `open`, which must be the innermost open span, and return
    /// its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` as a span called `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Add an already-measured child of the innermost open span,
    /// `offset_s` after that span began.
    pub fn closed(&mut self, name: &'static str, offset_s: f64, duration_s: f64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let base = parent.map_or(0.0, |p| self.spans[p].start_us);
        self.spans.push(Span {
            name,
            start_us: base + offset_s * 1e6,
            end_us: base + (offset_s + duration_s) * 1e6,
            parent,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// A span's duration minus its children's, in µs, for every span.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// The tree's shape rules: no span ends before it starts, no child
/// reaches outside its parent, and no self time is negative. Returns
/// the first rule broken. `slack_us` absorbs the rounding of intervals
/// rebuilt from the runner's second-resolution floats.
pub fn validate(spans: &[Span], slack_us: f64) -> Result<(), String> {
    for s in spans {
        if s.end_us < s.start_us {
            return Err(format!("span {} ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let p = &spans[p];
            if s.start_us < p.start_us - slack_us || s.end_us > p.end_us + slack_us {
                return Err(format!(
                    "span {} reaches outside its parent {}",
                    s.name, p.name
                ));
            }
        }
    }
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        if own < -slack_us {
            return Err(format!(
                "span {} has negative self time {own:.1} us",
                s.name
            ));
        }
    }
    Ok(())
}

/// Chrome `trace_event` JSON: one complete (`X`) event per span, the
/// parent's index in `args` so the tree survives the flat format.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
    ));
    for (id, (s, own)) in spans.iter().zip(self_times_us(spans)).enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"self_us\":{own:.3}}}}}",
            s.name,
            s.start_us,
            s.end_us - s.start_us
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("job", 0.0, 100.0, None),
            span("setup", 0.0, 30.0, Some(0)),
            span("build", 5.0, 15.0, Some(1)),
            span("run", 30.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![10.0, 20.0, 10.0, 60.0]);
        assert_eq!(validate(&spans, 0.0), Ok(()));
    }

    #[test]
    fn validate_rejects_overrun_and_negative_self_time() {
        let overrun = [span("p", 0.0, 10.0, None), span("c", 5.0, 12.0, Some(0))];
        assert!(validate(&overrun, 0.0).unwrap_err().contains("outside"));
        assert_eq!(validate(&overrun, 2.0), Ok(()));
        // Two overlapping children cover more than their parent.
        let crowded = [
            span("p", 0.0, 10.0, None),
            span("a", 0.0, 8.0, Some(0)),
            span("b", 2.0, 10.0, Some(0)),
        ];
        assert!(validate(&crowded, 0.0).unwrap_err().contains("negative"));
        let backwards = [span("p", 5.0, 1.0, None)];
        assert!(validate(&backwards, 0.0).unwrap_err().contains("before"));
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut r = Recorder::new(true);
        let a = r.enter("a");
        let (_, inner) = r.call("b", || ());
        r.closed("job", 0.0, 0.0);
        assert!(r.exit(a) >= inner);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        assert_eq!(r.count("b"), 1);
        assert_eq!(validate(r.spans(), 0.0), Ok(()));
        let json = chrome_trace(r.spans(), "t");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let a = r.enter("a");
        r.closed("job", 0.0, 1.0);
        assert!(r.exit(a) >= 0.0);
        assert!(r.spans().is_empty());
    }
}
