//! Throttled live progress reporting for long pipeline runs.
//!
//! A [`Progress`] reporter is attached to a collector with
//! [`crate::Collector::with_progress`] and driven entirely by the
//! instrumentation calls the pipeline already makes: span pushes mark
//! phase changes, counter updates mark work done, and timed scoring
//! tasks ([`crate::Collector::timeline_task`]) feed the worker
//! utilization line. Output goes to
//! stderr (or any writer, for tests), one `\r`-free line per emission
//! so logs capture cleanly, throttled to a minimum interval so hot
//! loops cannot flood the terminal.
//!
//! A line looks like:
//!
//! ```text
//! [progress] subgraph #0 δ=0.70  household pairs 12000  workers 1/2  live 12.5MB
//! ```
//!
//! `live` appears when the counting allocator is installed and
//! tracking.

use crate::alloc;
use std::io::Write;
use std::time::{Duration, Instant};

/// Render a byte count with a binary-ish human unit (powers of 1024).
#[must_use]
pub(crate) fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2}GB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1}MB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KB", b / KIB)
    } else {
        format!("{bytes}B")
    }
}

/// A throttled progress reporter. Construct with [`Progress::stderr`]
/// (or [`Progress::with_writer`] in tests) and attach via
/// [`crate::Collector::with_progress`].
pub struct Progress {
    out: Box<dyn Write + Send>,
    min_interval: Duration,
    last_emit: Option<Instant>,
    phase: String,
    iteration: Option<usize>,
    delta: Option<f64>,
    phase_start: Instant,
    task_us: u64,
    busy_workers: usize,
    total_workers: usize,
    truth_recovered: u64,
    truth_total: u64,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

impl Progress {
    /// A reporter writing to stderr, throttled to 4 lines/second.
    #[must_use]
    pub fn stderr() -> Self {
        Self::with_writer(Box::new(std::io::stderr()), Duration::from_millis(250))
    }

    /// A reporter with an explicit sink and throttle interval (tests
    /// pass a capturing writer and `Duration::ZERO`).
    #[must_use]
    pub fn with_writer(out: Box<dyn Write + Send>, min_interval: Duration) -> Self {
        Self {
            out,
            min_interval,
            last_emit: None,
            phase: String::new(),
            iteration: None,
            delta: None,
            phase_start: Instant::now(),
            task_us: 0,
            busy_workers: 0,
            total_workers: 0,
            truth_recovered: 0,
            truth_total: 0,
        }
    }

    fn header(&self) -> String {
        let mut h = format!("[progress] {}", self.phase);
        if let Some(i) = self.iteration {
            h.push_str(&format!(" #{i}"));
        }
        if let Some(d) = self.delta {
            h.push_str(&format!(" δ={d:.2}"));
        }
        h
    }

    /// A phase span opened: emit its header line (never throttled — at
    /// most a handful per δ iteration) and reset the phase's task time.
    pub(crate) fn phase_started(
        &mut self,
        name: &str,
        iteration: Option<usize>,
        delta: Option<f64>,
    ) {
        self.phase = name.to_owned();
        self.iteration = iteration;
        self.delta = delta;
        self.phase_start = Instant::now();
        self.task_us = 0;
        let line = self.header();
        let _ = writeln!(self.out, "{line}");
        self.last_emit = Some(Instant::now());
    }

    /// A worker finished a timed task: add it to the phase's task time.
    pub(crate) fn task(&mut self, duration_us: u64) {
        self.task_us += duration_us;
    }

    /// The busy-worker gauge moved: remember it and emit a throttled
    /// utilization line (`busy/total` workers plus the current phase's
    /// idle share, from recorded task time against the phase's elapsed
    /// worker capacity).
    pub(crate) fn utilization(&mut self, busy: usize, total: usize) {
        self.busy_workers = busy;
        self.total_workers = total;
        let now = Instant::now();
        if let Some(last) = self.last_emit {
            if now.duration_since(last) < self.min_interval {
                return;
            }
        }
        self.last_emit = Some(now);
        let mut line = self.header();
        line.push_str(&format!("  workers {busy}/{total} busy"));
        if let Some(idle) = self.phase_idle_pct(now) {
            line.push_str(&format!("  phase idle {idle:.0}%"));
        }
        let _ = writeln!(self.out, "{line}");
    }

    /// Share of the current phase's worker capacity (elapsed time ×
    /// worker count) not covered by recorded task work, in percent.
    /// `None` until both a worker count and some task time exist.
    fn phase_idle_pct(&self, now: Instant) -> Option<f64> {
        if self.total_workers == 0 || self.task_us == 0 {
            return None;
        }
        let elapsed =
            u64::try_from(now.duration_since(self.phase_start).as_micros()).unwrap_or(u64::MAX);
        let capacity = elapsed.saturating_mul(self.total_workers as u64);
        if capacity == 0 {
            return None;
        }
        let busy = self.task_us.min(capacity) as f64 / capacity as f64;
        Some((1.0 - busy) * 100.0)
    }

    /// The truth-coverage gauge moved: remember how many true record
    /// pairs the run has recovered so far, out of how many exist.
    /// Rendered on subsequent ticks; only fires when the collector
    /// loaded ground truth.
    pub(crate) fn truth_coverage(&mut self, recovered: u64, total: u64) {
        self.truth_recovered = recovered;
        self.truth_total = total;
    }

    /// Work progressed: emit a throttled status line. `total` of 0
    /// means the denominator is unknown.
    pub(crate) fn tick(&mut self, what: &str, done: u64, total: u64) {
        let now = Instant::now();
        if let Some(last) = self.last_emit {
            if now.duration_since(last) < self.min_interval {
                return;
            }
        }
        self.last_emit = Some(now);

        let mut line = self.header();
        if total > 0 {
            let pct = done as f64 / total as f64 * 100.0;
            line.push_str(&format!("  {what} {done}/{total} ({pct:.1}%)"));
        } else {
            line.push_str(&format!("  {what} {done}"));
        }
        if self.total_workers > 0 {
            line.push_str(&format!(
                "  workers {}/{}",
                self.busy_workers, self.total_workers
            ));
        }
        if self.truth_total > 0 {
            line.push_str(&format!(
                "  truth {}/{}",
                self.truth_recovered, self.truth_total
            ));
        }
        if alloc::tracking() {
            line.push_str(&format!("  live {}", fmt_bytes(alloc::live_bytes())));
        }
        let _ = writeln!(self.out, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn fmt_bytes_scales_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(999), "999B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00GB");
    }

    #[test]
    fn phase_lines_and_ticks_render() {
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::ZERO);
        p.phase_started("prematch", Some(0), Some(0.7));
        p.task(1000);
        p.tick("pairs", 40, 100);
        let text = cap.text();
        assert!(text.contains("[progress] prematch #0 δ=0.70"), "{text}");
        assert!(text.contains("pairs 40/100 (40.0%)"), "{text}");
    }

    #[test]
    fn throttling_suppresses_rapid_ticks() {
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::from_secs(3600));
        p.phase_started("subgraph", None, None);
        for i in 0..100 {
            p.tick("pairs", i, 100);
        }
        // only the phase header got through; every tick was inside the
        // throttle window it opened
        assert_eq!(cap.text().lines().count(), 1, "{}", cap.text());
    }

    #[test]
    fn unknown_total_omits_percentage_and_eta() {
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::ZERO);
        p.phase_started("remainder", None, None);
        p.tick("pairs", 17, 0);
        let text = cap.text();
        assert!(text.contains("pairs 17\n"), "{text}");
        assert!(!text.contains("eta"), "{text}");
    }

    #[test]
    fn utilization_lines_render_and_throttle() {
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::ZERO);
        p.phase_started("prematch", Some(0), Some(0.7));
        // no task time yet: workers only, no idle share
        p.utilization(2, 4);
        p.task(1); // 1µs of recorded work: phase is nearly all idle
        std::thread::sleep(Duration::from_millis(2));
        p.utilization(3, 4);
        // subsequent ticks carry the last-seen worker gauge
        p.tick("pairs", 40, 100);
        let text = cap.text();
        assert!(text.contains("workers 2/4 busy"), "{text}");
        assert!(text.contains("workers 3/4 busy  phase idle"), "{text}");
        assert!(text.contains("pairs 40/100 (40.0%)  workers 3/4"), "{text}");

        // throttled like every other line
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::from_secs(3600));
        p.phase_started("prematch", None, None);
        for _ in 0..50 {
            p.utilization(1, 4);
        }
        assert_eq!(cap.text().lines().count(), 1, "{}", cap.text());
    }

    #[test]
    fn truth_coverage_renders_on_ticks_once_set() {
        let cap = Capture::default();
        let mut p = Progress::with_writer(Box::new(cap.clone()), Duration::ZERO);
        p.phase_started("selection", Some(0), Some(0.7));
        // no truth loaded: no segment
        p.tick("household pairs", 10, 0);
        assert!(!cap.text().contains("truth"), "{}", cap.text());
        p.truth_coverage(12, 400);
        p.tick("household pairs", 20, 0);
        let text = cap.text();
        assert!(text.contains("  truth 12/400"), "{text}");
    }
}
