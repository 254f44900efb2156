//! Windowed availability/SLO tracking over virtual time.
//!
//! [`SloWindow`] slices the virtual-time axis into fixed-width windows
//! and keeps a preallocated ring of the most recent ones, each tracking
//! availability, ground-truth fault rate, false-alarm rate and
//! latency-threshold violations. [`DependabilitySnapshot`] is the
//! poll-friendly aggregate a policy engine (or the `/snapshot` exporter
//! endpoint) reads: lifetime rates plus the worst completed window, so
//! a transient dip is visible even when the lifetime average looks
//! healthy.
//!
//! `observe` is allocation-free (ring-slot arithmetic only), so the
//! tracker can sit on the per-demand hot path next to the counting
//! allocator gate.

use std::fmt::Write as _;

/// Configuration for a [`SloWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Width of one window, in virtual seconds.
    pub window_secs: f64,
    /// Number of windows retained in the ring.
    pub windows: usize,
    /// Response times strictly above this (seconds) count as latency
    /// violations.
    pub latency_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            window_secs: 60.0,
            windows: 64,
            latency_threshold: 2.0,
        }
    }
}

/// Per-window accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WindowStats {
    epoch: u64,
    used: bool,
    demands: u64,
    available: u64,
    faults: u64,
    false_alarms: u64,
    latency_violations: u64,
    latency_sum: f64,
}

impl WindowStats {
    fn availability(&self) -> f64 {
        if self.demands == 0 {
            f64::NAN
        } else {
            self.available as f64 / self.demands as f64
        }
    }
}

/// One demand's dependability signals, as fed to
/// [`SloWindow::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObservation {
    /// Virtual time of the demand's dispatch, in seconds.
    pub t: f64,
    /// Whether the system produced a response (verdict ≠ unavailable).
    pub available: bool,
    /// Whether ground truth says some release failed on this demand.
    pub fault: bool,
    /// Whether the failure detector raised a false alarm.
    pub false_alarm: bool,
    /// System response time, in seconds.
    pub response_time: f64,
}

/// A ring of virtual-time windows tracking availability and SLO
/// signals.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    config: SloConfig,
    ring: Vec<WindowStats>,
    current_epoch: u64,
    // Lifetime totals (never evicted).
    demands: u64,
    available: u64,
    faults: u64,
    false_alarms: u64,
    latency_violations: u64,
    latency_sum: f64,
    // Windows evicted from the ring.
    closed_windows: u64,
    worst_closed: f64,
}

impl Default for SloWindow {
    fn default() -> Self {
        Self::new(SloConfig::default())
    }
}

impl SloWindow {
    /// A tracker with the given configuration (ring allocated up
    /// front).
    pub fn new(config: SloConfig) -> Self {
        assert!(config.window_secs > 0.0, "window_secs must be positive");
        let windows = config.windows.max(1);
        Self {
            config: SloConfig { windows, ..config },
            ring: vec![WindowStats::default(); windows],
            current_epoch: 0,
            demands: 0,
            available: 0,
            faults: 0,
            false_alarms: 0,
            latency_violations: 0,
            latency_sum: 0.0,
            closed_windows: 0,
            worst_closed: f64::INFINITY,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Total demands observed.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Feeds one demand. Allocation-free.
    pub fn observe(&mut self, obs: SloObservation) {
        let epoch = (obs.t.max(0.0) / self.config.window_secs) as u64;
        let windows = self.ring.len() as u64;
        let slot = if windows.is_power_of_two() {
            epoch & (windows - 1)
        } else {
            epoch % windows
        } as usize;
        let w = &mut self.ring[slot];
        if !w.used || w.epoch != epoch {
            if w.used && w.demands > 0 {
                // Evicting a window closes it for good; keep its
                // availability in the lifetime floor.
                self.closed_windows += 1;
                let avail = w.availability();
                if avail < self.worst_closed {
                    self.worst_closed = avail;
                }
            }
            *w = WindowStats {
                epoch,
                used: true,
                ..WindowStats::default()
            };
        }
        if epoch > self.current_epoch {
            self.current_epoch = epoch;
        }
        let violation = obs.response_time > self.config.latency_threshold;
        let w = &mut self.ring[slot];
        w.demands += 1;
        w.available += obs.available as u64;
        w.faults += obs.fault as u64;
        w.false_alarms += obs.false_alarm as u64;
        w.latency_violations += violation as u64;
        w.latency_sum += obs.response_time;

        self.demands += 1;
        self.available += obs.available as u64;
        self.faults += obs.fault as u64;
        self.false_alarms += obs.false_alarm as u64;
        self.latency_violations += violation as u64;
        self.latency_sum += obs.response_time;
    }

    /// Number of windows completed so far (evicted from the ring or
    /// still in it but older than the current window), counting only
    /// windows that saw at least one demand.
    pub fn complete_windows(&self) -> u64 {
        let in_ring = self
            .ring
            .iter()
            .filter(|w| w.used && w.demands > 0 && w.epoch < self.current_epoch)
            .count() as u64;
        self.closed_windows + in_ring
    }

    /// The lowest availability over all completed windows; falls back
    /// to the lifetime availability while no window has completed.
    /// `NaN` before any demand.
    pub fn worst_window_availability(&self) -> f64 {
        let mut worst = self.worst_closed;
        for w in &self.ring {
            if w.used && w.demands > 0 && w.epoch < self.current_epoch {
                let avail = w.availability();
                if avail < worst {
                    worst = avail;
                }
            }
        }
        if worst.is_finite() {
            worst
        } else if self.demands > 0 {
            self.available as f64 / self.demands as f64
        } else {
            f64::NAN
        }
    }

    /// The poll-friendly aggregate of everything the tracker knows.
    pub fn snapshot(&self) -> DependabilitySnapshot {
        let n = self.demands as f64;
        let rate = |x: u64| {
            if self.demands == 0 {
                f64::NAN
            } else {
                x as f64 / n
            }
        };
        let current = self
            .ring
            .iter()
            .find(|w| w.used && w.epoch == self.current_epoch);
        DependabilitySnapshot {
            demands: self.demands,
            window_secs: self.config.window_secs,
            latency_threshold: self.config.latency_threshold,
            availability: rate(self.available),
            fault_rate: rate(self.faults),
            false_alarm_rate: rate(self.false_alarms),
            latency_violation_rate: rate(self.latency_violations),
            mean_latency: if self.demands == 0 {
                f64::NAN
            } else {
                self.latency_sum / n
            },
            complete_windows: self.complete_windows(),
            worst_window_availability: self.worst_window_availability(),
            current_window_demands: current.map(|w| w.demands).unwrap_or(0),
            current_window_availability: current.map(|w| w.availability()).unwrap_or(f64::NAN),
        }
    }
}

/// Aggregated dependability state, as polled by a policy engine or
/// served on `/snapshot`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DependabilitySnapshot {
    /// Total demands observed.
    pub demands: u64,
    /// Window width, in virtual seconds.
    pub window_secs: f64,
    /// The latency-violation threshold, in seconds.
    pub latency_threshold: f64,
    /// Lifetime availability (fraction of demands answered).
    pub availability: f64,
    /// Lifetime ground-truth fault rate.
    pub fault_rate: f64,
    /// Lifetime false-alarm rate.
    pub false_alarm_rate: f64,
    /// Lifetime latency-violation rate.
    pub latency_violation_rate: f64,
    /// Lifetime mean response time, in seconds.
    pub mean_latency: f64,
    /// Number of completed windows that saw demands.
    pub complete_windows: u64,
    /// Lowest availability over completed windows (lifetime
    /// availability while none has completed).
    pub worst_window_availability: f64,
    /// Demands in the currently filling window.
    pub current_window_demands: u64,
    /// Availability of the currently filling window.
    pub current_window_availability: f64,
}

impl DependabilitySnapshot {
    /// Serialises the snapshot as one JSON object (non-finite values
    /// become `null`, as in the trace format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"wsu-snapshot/1\"");
        let num = |key: &str, v: f64| {
            let mut s = String::new();
            if v.is_finite() {
                let _ = write!(s, ",\"{key}\":{v}");
            } else {
                let _ = write!(s, ",\"{key}\":null");
            }
            s
        };
        let _ = write!(out, ",\"demands\":{}", self.demands);
        out.push_str(&num("window_secs", self.window_secs));
        out.push_str(&num("latency_threshold", self.latency_threshold));
        out.push_str(&num("availability", self.availability));
        out.push_str(&num("fault_rate", self.fault_rate));
        out.push_str(&num("false_alarm_rate", self.false_alarm_rate));
        out.push_str(&num("latency_violation_rate", self.latency_violation_rate));
        out.push_str(&num("mean_latency", self.mean_latency));
        let _ = write!(out, ",\"complete_windows\":{}", self.complete_windows);
        out.push_str(&num(
            "worst_window_availability",
            self.worst_window_availability,
        ));
        let _ = write!(
            out,
            ",\"current_window_demands\":{}",
            self.current_window_demands
        );
        out.push_str(&num(
            "current_window_availability",
            self.current_window_availability,
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: f64, available: bool) -> SloObservation {
        SloObservation {
            t,
            available,
            fault: !available,
            false_alarm: false,
            response_time: if available { 0.5 } else { 2.1 },
        }
    }

    #[test]
    fn empty_tracker_reports_nan_rates() {
        let w = SloWindow::default();
        let snap = w.snapshot();
        assert_eq!(snap.demands, 0);
        assert!(snap.availability.is_nan());
        assert!(snap.worst_window_availability.is_nan());
    }

    #[test]
    fn windows_partition_virtual_time() {
        let mut w = SloWindow::new(SloConfig {
            window_secs: 10.0,
            windows: 4,
            latency_threshold: 2.0,
        });
        for i in 0..10 {
            w.observe(obs(i as f64, true));
        }
        // All ten demands in window [0, 10): one current window, none
        // complete yet.
        assert_eq!(w.complete_windows(), 0);
        w.observe(obs(10.5, false));
        assert_eq!(w.complete_windows(), 1);
        let snap = w.snapshot();
        assert_eq!(snap.demands, 11);
        assert_eq!(snap.current_window_demands, 1);
        assert_eq!(snap.current_window_availability, 0.0);
        assert_eq!(snap.worst_window_availability, 1.0);
    }

    #[test]
    fn worst_window_tracks_evicted_windows() {
        let mut w = SloWindow::new(SloConfig {
            window_secs: 1.0,
            windows: 2,
            latency_threshold: 2.0,
        });
        // Window 0: 1 of 2 available (availability 0.5), then push far
        // enough ahead that it is evicted from the two-slot ring.
        w.observe(obs(0.1, true));
        w.observe(obs(0.2, false));
        for e in 1..6 {
            w.observe(obs(e as f64 + 0.5, true));
        }
        let snap = w.snapshot();
        assert_eq!(snap.worst_window_availability, 0.5);
        assert!(snap.complete_windows >= 5);
    }

    #[test]
    fn latency_violations_use_strict_threshold() {
        let mut w = SloWindow::new(SloConfig {
            window_secs: 60.0,
            windows: 4,
            latency_threshold: 2.0,
        });
        w.observe(SloObservation {
            t: 0.0,
            available: true,
            fault: false,
            false_alarm: false,
            response_time: 2.0,
        });
        w.observe(SloObservation {
            t: 1.0,
            available: true,
            fault: false,
            false_alarm: true,
            response_time: 2.1,
        });
        let snap = w.snapshot();
        assert_eq!(snap.latency_violation_rate, 0.5);
        assert_eq!(snap.false_alarm_rate, 0.5);
        assert_eq!(snap.fault_rate, 0.0);
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let mut w = SloWindow::default();
        w.observe(obs(0.0, true));
        let json = w.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"wsu-snapshot/1\""), "{json}");
        assert!(json.contains("\"demands\":1"), "{json}");
        assert!(json.contains("\"availability\":1"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        // Round-trips through the crate's own JSON parser.
        let parsed = crate::jsonl::parse_jsonl(&json).unwrap();
        assert_eq!(parsed[0].get("demands").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn worst_window_falls_back_to_lifetime_before_first_completion() {
        let mut w = SloWindow::default();
        w.observe(obs(0.0, true));
        w.observe(obs(1.0, false));
        let snap = w.snapshot();
        assert_eq!(snap.complete_windows, 0);
        assert_eq!(snap.worst_window_availability, 0.5);
    }
}
