//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one root span per pass and one child span around
//! each call it makes into a layer's public functions. Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! recorder reads no clock at all, so untraced passes pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`hyracks.run`, `apps.verify`, `pass`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; when `on` is false every call is a no-op.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Opens a span nested in the innermost open one; returns its index
    /// (`None` while recording is off).
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: ns,
            end_ns: ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// A recorded span's duration in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Self time in seconds per span name over the tree rooted at
    /// `root`: each span's duration minus the part its direct children
    /// cover. The values sum to the root's duration.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents precede children, so one forward sweep settles both.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent.filter(|&p| in_tree[p]) {
                in_tree[i] = true;
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let own = s.dur_ns() - child_ns[i];
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut sp = Spans::new(true);
        let root = sp.enter("pass").unwrap();
        sp.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.span("b", || ());
        sp.exit();
        let other = sp.enter("pass").unwrap();
        sp.exit();
        let st = sp.self_times(root);
        let total: f64 = st.values().sum();
        let root_s = sp.duration_s(root);
        assert!((total - root_s).abs() < 1e-9, "{total} vs {root_s}");
        assert!(st["a"] >= 0.002);
        assert_eq!(sp.self_times(other).len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.enter("pass"), None);
        assert_eq!(sp.span("a", || 7), 7);
        sp.exit();
        assert!(sp.spans.is_empty());
    }
}
