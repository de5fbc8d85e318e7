//! Benchmark-side spans for the traced run: one span around each timed
//! call and probe, with its parent span and a shared id (the cell index
//! for kernel calls, the job index for service jobs). Spans are kept in
//! memory and written out once, when the benchmark ends.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: Box<str>,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    shared: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A recorder that keeps at most `cap` spans; `enabled == false`
    /// makes every call a no-op (the untimed end-to-end run).
    pub fn new(enabled: bool, cap: usize) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children) or
    /// [`NO_PARENT`] when disabled or full.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: u32,
        shared: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            shared,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Reserve a parent span now and set its end later with
    /// [`close`](Self::close), so children can name it while it is open.
    pub fn open(&mut self, name: &str, parent: u32, shared: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, shared)
    }

    pub fn close(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"dropped\": {}, \"spans\": [", self.dropped)?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"shared\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.shared, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
