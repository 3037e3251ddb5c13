//! System health monitoring: the other half of blueprint Part VI —
//! "modules to monitor the status of the entire system and alert the system
//! manager if something appears to be wrong".
//!
//! Components report heartbeats and named metrics against declared bands;
//! the monitor derives a status and an alert log. Time is injected by the
//! caller (a tick counter), keeping the module deterministic and testable.

use std::collections::BTreeMap;

/// Component status at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Heartbeats fresh, metrics in band.
    Healthy,
    /// A metric strayed out of band.
    Degraded,
    /// Heartbeat overdue.
    Unresponsive,
}

/// An alert raised by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Tick when raised.
    pub tick: u64,
    /// Offending component.
    pub component: String,
    /// What happened.
    pub message: String,
}

#[derive(Debug, Clone)]
struct Component {
    last_heartbeat: u64,
    /// metric → (lo, hi) band.
    bands: BTreeMap<String, (f64, f64)>,
    /// metric → last value.
    metrics: BTreeMap<String, f64>,
}

/// The health monitor.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    components: BTreeMap<String, Component>,
    heartbeat_timeout: u64,
    alerts: Vec<Alert>,
}

impl HealthMonitor {
    /// A monitor that declares a component unresponsive after
    /// `heartbeat_timeout` ticks of silence.
    pub fn new(heartbeat_timeout: u64) -> HealthMonitor {
        assert!(heartbeat_timeout > 0);
        HealthMonitor { components: BTreeMap::new(), heartbeat_timeout, alerts: Vec::new() }
    }

    /// Register a component with metric bands.
    pub fn register(
        &mut self,
        name: &str,
        bands: impl IntoIterator<Item = (&'static str, f64, f64)>,
    ) {
        self.components.insert(
            name.to_string(),
            Component {
                last_heartbeat: 0,
                bands: bands.into_iter().map(|(m, lo, hi)| (m.to_string(), (lo, hi))).collect(),
                metrics: BTreeMap::new(),
            },
        );
    }

    /// Record a heartbeat with current metric values.
    pub fn heartbeat(
        &mut self,
        tick: u64,
        name: &str,
        metrics: impl IntoIterator<Item = (&'static str, f64)>,
    ) {
        let Some(c) = self.components.get_mut(name) else { return };
        c.last_heartbeat = tick;
        for (m, v) in metrics {
            c.metrics.insert(m.to_string(), v);
            if let Some(&(lo, hi)) = c.bands.get(m) {
                if v < lo || v > hi {
                    self.alerts.push(Alert {
                        tick,
                        component: name.to_string(),
                        message: format!("{m} = {v} outside band [{lo}, {hi}]"),
                    });
                }
            }
        }
    }

    /// Evaluate a component's status as of `tick` (raising an alert when a
    /// heartbeat is overdue).
    pub fn status(&mut self, tick: u64, name: &str) -> Option<HealthStatus> {
        let c = self.components.get(name)?;
        if tick.saturating_sub(c.last_heartbeat) > self.heartbeat_timeout {
            self.alerts.push(Alert {
                tick,
                component: name.to_string(),
                message: format!("no heartbeat since tick {}", c.last_heartbeat),
            });
            return Some(HealthStatus::Unresponsive);
        }
        let degraded = c
            .bands
            .iter()
            .any(|(m, &(lo, hi))| c.metrics.get(m).is_some_and(|&v| v < lo || v > hi));
        Some(if degraded { HealthStatus::Degraded } else { HealthStatus::Healthy })
    }

    /// Every alert raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        let mut m = HealthMonitor::new(5);
        m.register("extractor", [("error_rate", 0.0, 0.2), ("docs_per_tick", 1.0, 1e9)]);
        m
    }

    #[test]
    fn healthy_component() {
        let mut m = monitor();
        m.heartbeat(1, "extractor", [("error_rate", 0.05), ("docs_per_tick", 100.0)]);
        assert_eq!(m.status(3, "extractor"), Some(HealthStatus::Healthy));
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn out_of_band_metric_degrades_and_alerts() {
        let mut m = monitor();
        m.heartbeat(1, "extractor", [("error_rate", 0.5)]);
        assert_eq!(m.status(2, "extractor"), Some(HealthStatus::Degraded));
        assert_eq!(m.alerts().len(), 1);
        assert!(m.alerts()[0].message.contains("error_rate"));
    }

    #[test]
    fn missed_heartbeats_mean_unresponsive() {
        let mut m = monitor();
        m.heartbeat(1, "extractor", [("error_rate", 0.1)]);
        assert_eq!(m.status(10, "extractor"), Some(HealthStatus::Unresponsive));
        assert!(m.alerts().iter().any(|a| a.message.contains("no heartbeat")));
    }

    #[test]
    fn recovery_after_new_heartbeat() {
        let mut m = monitor();
        m.heartbeat(1, "extractor", [("error_rate", 0.9)]);
        assert_eq!(m.status(2, "extractor"), Some(HealthStatus::Degraded));
        m.heartbeat(3, "extractor", [("error_rate", 0.1)]);
        assert_eq!(m.status(4, "extractor"), Some(HealthStatus::Healthy));
    }

    #[test]
    fn unknown_component_is_none() {
        let mut m = monitor();
        assert_eq!(m.status(1, "ghost"), None);
        m.heartbeat(1, "ghost", [("x", 1.0)]); // silently ignored
        assert!(m.alerts().is_empty());
    }
}
