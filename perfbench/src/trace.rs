//! In-memory span and count recorder.
//!
//! Spans are recorded around calls the benchmark makes into the library,
//! never inside it. All benchmarked calls arrive on one thread (the serve
//! event loop calls its backend inline), so the open-span stack gives each
//! span its parent. Recording is off unless [`enable`] was called; a
//! disabled [`span`] costs one relaxed atomic load.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, `crate.operation`.
    pub name: &'static str,
    /// Nanoseconds since tracing was enabled.
    pub start_ns: u64,
    /// Nanoseconds since tracing was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The backend call (chunk) this span belongs to, if any.
    pub chunk: Option<u64>,
}

/// Everything one traced pass recorded.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Counts recorded at the same boundaries.
    pub counts: BTreeMap<&'static str, f64>,
}

struct State {
    epoch: Instant,
    trace: Trace,
    open: Vec<usize>,
}

fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
    STATE
        .lock()
        .expect("trace state poisoned by a panic while recording")
}

/// Start recording into a fresh trace.
pub fn enable() {
    *lock() = Some(State {
        epoch: Instant::now(),
        trace: Trace::default(),
        open: Vec::new(),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording and hand back what was recorded.
pub fn disable() -> Trace {
    ENABLED.store(false, Ordering::Relaxed);
    lock().take().map(|s| s.trace).unwrap_or_default()
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, chunk: Option<u64>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = {
        let mut guard = lock();
        let st = guard.as_mut().expect("tracing enabled without state");
        let idx = st.trace.spans.len();
        let start_ns = st.epoch.elapsed().as_nanos() as u64;
        st.trace.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: st.open.last().copied(),
            chunk,
        });
        st.open.push(idx);
        idx
    };
    let out = f();
    let mut guard = lock();
    let st = guard.as_mut().expect("tracing enabled without state");
    st.trace.spans[idx].end_ns = st.epoch.elapsed().as_nanos() as u64;
    st.open.pop();
    out
}

/// Add `v` to the count `name`.
pub fn count(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    if let Some(st) = lock().as_mut() {
        *st.trace.counts.entry(name).or_insert(0.0) += v;
    }
}

impl Trace {
    /// Per-name self time in ns: each span's duration minus the time its
    /// direct children cover. Children of one span never overlap (they
    /// run on one thread), so the self times of every span sum to the
    /// duration of the root spans.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - c;
        }
        out
    }

    /// Per-name total (inclusive) time in ns.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Count `name`, 0 when never recorded.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Write spans (one JSON object per line) and counts to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"chunk\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.chunk.map_or("null".to_string(), |c| c.to_string()),
            )?;
        }
        for (name, v) in &self.counts {
            writeln!(w, "{{\"count\":\"{name}\",\"value\":{v}}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let t = Trace {
            spans: vec![
                Span {
                    name: "root",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    chunk: None,
                },
                Span {
                    name: "a",
                    start_ns: 10,
                    end_ns: 50,
                    parent: Some(0),
                    chunk: None,
                },
                Span {
                    name: "b",
                    start_ns: 20,
                    end_ns: 30,
                    parent: Some(1),
                    chunk: Some(0),
                },
                Span {
                    name: "b",
                    start_ns: 60,
                    end_ns: 90,
                    parent: Some(0),
                    chunk: Some(1),
                },
            ],
            counts: BTreeMap::new(),
        };
        let s = t.self_ns();
        assert_eq!(s["root"], 30);
        assert_eq!(s["a"], 30);
        assert_eq!(s["b"], 40);
        assert_eq!(s.values().sum::<u64>(), 100);
    }
}
