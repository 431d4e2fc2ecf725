//! Spans recorded around the benchmark's calls into each layer. They are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;

use baldur_bench::perf::monotonic_ns;

/// One timed call: its name, host-clock bounds and the span it ran in.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `driver` or `simulate.router_net`.
    pub name: String,
    /// Start, monotonic ns.
    pub start_ns: u64,
    /// End, monotonic ns.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at the root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time inside the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled tracer runs each closure and records
/// nothing, so the untraced runs pay no tracing cost beyond a branch.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::default()
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: monotonic_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = monotonic_ns();
        out
    }

    /// [`Tracer::span`], also returning the span's duration in ns (zero
    /// when the tracer is off).
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let idx = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans.get(idx).map_or(0, Span::duration_ns))
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recent root span called `name`.
    pub fn last_root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.parent.is_none() && s.name == name)
    }

    /// Self time per span name, ns: each span's duration minus the time
    /// its direct children cover, summed over the spans under `root`
    /// (the root included).
    pub fn self_ns_under(&self, root: usize) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends_from(i, root) {
                *out.entry(s.name.clone()).or_insert(0) +=
                    s.duration_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    fn descends_from(&self, mut idx: usize, root: usize) -> bool {
        loop {
            if idx == root {
                return true;
            }
            match self.spans[idx].parent {
                Some(p) => idx = p,
                None => return false,
            }
        }
    }

    /// The spans as one JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[{}]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tr = Tracer::on();
        tr.span("root", |tr| {
            tr.span("a", |tr| tr.span("b", |_| std::hint::black_box(0)));
            tr.span("a", |_| ());
        });
        let root = tr.last_root("root").expect("root span");
        let parents: Vec<Option<usize>> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        let self_ns = tr.self_ns_under(root);
        let total: u64 = self_ns.values().sum();
        assert_eq!(total, tr.spans()[root].duration_ns());
        let a_self =
            tr.spans()[1].duration_ns() - tr.spans()[2].duration_ns() + tr.spans()[3].duration_ns();
        assert_eq!(self_ns["a"], a_self);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
