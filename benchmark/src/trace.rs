//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: `name` is the layer metric it feeds (e.g.
/// `ml.KNN.fit`), `grid` the dataset × error type it belongs to, `parent`
/// the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub grid: String,
    pub start: Duration,
    pub dur: Duration,
    pub parent: Option<usize>,
    pub track: usize,
}

/// The span buffer. A disabled tracer records nothing (measured runs keep
/// no span buffer); timings are still returned to the caller.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a finished span that began at `start`; returns its index
    /// (usable as a parent) when tracing.
    pub fn record(
        &self,
        name: &str,
        grid: &str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
        track: usize,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("span buffer poisoned by a panicking client");
        spans.push(Span {
            name: name.to_string(),
            grid: grid.to_string(),
            start: start.saturating_duration_since(self.epoch),
            dur,
            parent,
            track,
        });
        Some(spans.len() - 1)
    }

    /// Reserves a parent span before its children run; [`Tracer::close`]
    /// fills in its duration.
    pub fn open(&self, name: &str, grid: &str, parent: Option<usize>) -> Option<usize> {
        self.record(name, grid, Instant::now(), Duration::ZERO, parent, 0)
    }

    pub fn close(&self, id: Option<usize>) {
        let (Some(id), Some(spans)) = (id, &self.spans) else { return };
        let mut spans = spans.lock().expect("span buffer poisoned by a panicking client");
        let now = self.epoch.elapsed();
        let span = &mut spans[id];
        span.dur = now.saturating_sub(span.start);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("span buffer poisoned by a panicking client").clone()
        })
    }

    /// Writes every span as a Chrome trace-event (`ph: "X"`) JSON file,
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"grid\":{}}}}}",
                crate::json_str(&s.name),
                crate::json_str(s.name.split('.').next().unwrap_or("")),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.track,
                crate::json_str(&s.grid),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.record("a", "", Instant::now(), Duration::ZERO, None, 0), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_and_durations_are_kept() {
        let t = Tracer::new(true);
        let p = t.open("core.grid", "EEG/Outliers", None);
        let c =
            t.record("ml.KNN.fit", "EEG/Outliers", Instant::now(), Duration::from_millis(2), p, 0);
        t.close(p);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[c.unwrap()].parent, p);
        assert_eq!(spans[1].dur, Duration::from_millis(2));
    }
}
