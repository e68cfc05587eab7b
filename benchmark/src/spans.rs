//! Spans the benchmark records around its calls into each layer. They are
//! kept in memory and written out once, when the repetition ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Calls covered by one span of a kernel loop.
pub const BATCH: u64 = 64 * 1024;

/// Identifies a span in its [`SpanLog`].
pub type SpanId = u32;

#[derive(Debug)]
struct Span {
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log with one clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Runs `calls` calls of `op` under a span `name`, one child span per
    /// [`BATCH`] calls, and returns nanoseconds per call. `op` receives the
    /// call's index.
    pub fn time_calls(
        &mut self,
        name: &'static str,
        parent: SpanId,
        calls: u64,
        mut op: impl FnMut(u64),
    ) -> f64 {
        let root = self.open(name, Some(parent));
        let mut busy_s = 0.0;
        let mut done = 0u64;
        while done < calls {
            let n = BATCH.min(calls - done);
            let batch = self.open(name, Some(root));
            for i in done..done + n {
                op(i);
            }
            busy_s += self.close(batch);
            done += n;
        }
        self.close(root);
        busy_s * 1e9 / calls.max(1) as f64
    }

    /// Each span's duration minus the part its child spans cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                let covered = s.end_ns - s.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(covered);
            }
        }
        own
    }

    /// Writes one JSON object per span: id, parent (-1 for a root), name,
    /// start, end and self time in nanoseconds, and the workload id that
    /// every span of this repetition shares.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_times_ns();
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{id},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"workload\":\"{workload}\",\"seed\":{seed}}}",
                s.parent.map_or(-1, i64::from),
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[id],
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_batches_cover_every_call() {
        let mut log = SpanLog::default();
        let root = log.open("root", None);
        let mut seen = 0u64;
        let ns = log.time_calls("kernel", root, BATCH + 5, |i| {
            assert_eq!(i, seen);
            seen += 1;
        });
        log.close(root);
        assert_eq!(seen, BATCH + 5);
        assert!(ns >= 0.0);
        // root -> kernel -> two batch spans.
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.spans[2].parent, Some(1));
        let own = log.self_times_ns();
        let duration = |i: usize| log.spans[i].end_ns - log.spans[i].start_ns;
        assert_eq!(own[1], duration(1) - duration(2) - duration(3));
        assert_eq!(own[root as usize], duration(0) - duration(1));
        assert_eq!(own[2], duration(2));
    }
}
