//! Campaign progress heartbeat.
//!
//! A campaign at paper scale runs for hours with no output until the
//! first figure prints; the heartbeat is a background thread that writes
//! a one-line progress report to stderr every interval: units finished /
//! planned, throughput in units per second, an ETA extrapolated from the
//! running average, and the quarantine count. Work-unit workers only
//! bump relaxed atomics, so the heartbeat adds no coordination to the
//! campaign hot path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct HeartbeatState {
    done: AtomicUsize,
    quarantined: AtomicUsize,
    stop: AtomicBool,
}

/// Background progress reporter for a campaign run.
///
/// Dropping the heartbeat stops and joins the reporter thread (emitting
/// one final line if any units completed), so it cannot outlive the
/// campaign even on early-error returns.
pub(crate) struct Heartbeat {
    state: Arc<HeartbeatState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Start a reporter thread: `planned` work units are expected this
    /// run; a line is written to stderr every `interval`.
    pub fn start(planned: usize, interval: Duration) -> Self {
        let state = Arc::new(HeartbeatState {
            done: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let thread_state = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut next_report = interval;
            loop {
                // Sleep in short steps so Drop never waits a full interval.
                std::thread::sleep(Duration::from_millis(50));
                if thread_state.stop.load(Ordering::Relaxed) {
                    break;
                }
                if t0.elapsed() >= next_report {
                    next_report += interval;
                    eprintln!(
                        "{}",
                        format_line(
                            thread_state.done.load(Ordering::Relaxed),
                            planned,
                            t0.elapsed().as_secs_f64(),
                            thread_state.quarantined.load(Ordering::Relaxed),
                        )
                    );
                }
            }
            let done = thread_state.done.load(Ordering::Relaxed);
            if done > 0 {
                eprintln!(
                    "{}",
                    format_line(
                        done,
                        planned,
                        t0.elapsed().as_secs_f64(),
                        thread_state.quarantined.load(Ordering::Relaxed),
                    )
                );
            }
        });
        Self {
            state,
            handle: Some(handle),
        }
    }

    /// Record one finished work unit (healthy or quarantined).
    pub(crate) fn unit_done(&self) {
        self.state.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one quarantined work unit (in addition to [`unit_done`]).
    ///
    /// [`unit_done`]: Heartbeat::unit_done
    pub(crate) fn unit_quarantined(&self) {
        self.state.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Render one progress line, e.g.
/// `heartbeat: 42/160 units (26%), 3.4 units/s, ETA 35s, 1 quarantined`.
pub(crate) fn format_line(
    done: usize,
    planned: usize,
    elapsed_secs: f64,
    quarantined: usize,
) -> String {
    let pct = (done * 100).checked_div(planned).unwrap_or(100);
    let rate = if elapsed_secs > 0.0 {
        done as f64 / elapsed_secs
    } else {
        0.0
    };
    let eta = if done > 0 && planned > done {
        let remaining = (planned - done) as f64 / rate.max(f64::MIN_POSITIVE);
        format!("ETA {}s", remaining.ceil() as u64)
    } else if done >= planned {
        "done".to_string()
    } else {
        "ETA ?".to_string()
    };
    let mut line = format!("heartbeat: {done}/{planned} units ({pct}%), {rate:.1} units/s, {eta}");
    if quarantined > 0 {
        line.push_str(&format!(", {quarantined} quarantined"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_line_midway() {
        let line = format_line(40, 160, 10.0, 0);
        assert_eq!(line, "heartbeat: 40/160 units (25%), 4.0 units/s, ETA 30s");
    }

    #[test]
    fn format_line_with_quarantine() {
        let line = format_line(10, 20, 5.0, 3);
        assert!(line.ends_with(", 3 quarantined"), "{line}");
    }

    #[test]
    fn format_line_complete_says_done() {
        let line = format_line(20, 20, 5.0, 0);
        assert!(line.contains("(100%)"), "{line}");
        assert!(line.ends_with("done"), "{line}");
    }

    #[test]
    fn format_line_zero_progress_has_unknown_eta() {
        let line = format_line(0, 50, 2.0, 0);
        assert!(line.contains("ETA ?"), "{line}");
    }

    #[test]
    fn format_line_zero_planned_does_not_divide_by_zero() {
        let line = format_line(0, 0, 1.0, 0);
        assert!(line.contains("0/0 units (100%)"), "{line}");
    }

    #[test]
    fn heartbeat_counts_and_stops() {
        let hb = Heartbeat::start(4, Duration::from_secs(3600));
        hb.unit_done();
        hb.unit_done();
        hb.unit_quarantined();
        assert_eq!(hb.state.done.load(Ordering::Relaxed), 2);
        assert_eq!(hb.state.quarantined.load(Ordering::Relaxed), 1);
        drop(hb); // must join promptly despite the huge interval
    }
}
