//! In-memory spans around calls into each layer, written out when a run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One timed interval. Spans of one request, forward or step share `trace`;
/// `parent` is the index of the enclosing span in the recorder, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the spans of one run.
#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Record a span and return its index (usable as a parent).
    pub fn push(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { trace, parent, name, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
