//! Sensor-data substrate for the paper's §6 generalization.
//!
//! "Another example is sensor data from which we want to infer real-world
//! events (e.g., someone has entered the room)." The same DGE shape
//! applies: raw readings → extracted events (imperfect) → integration →
//! human verification. This module generates the raw material: per-room
//! motion/temperature streams with ground-truth occupancy intervals, plus
//! the noise (dropouts, spurious triggers) that makes event extraction
//! fallible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sensor-stream generation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of rooms (one motion + one temperature sensor each).
    pub n_rooms: usize,
    /// Samples per room (one per minute, say).
    pub samples: usize,
    /// Probability a sample is dropped (sensor dropout).
    pub dropout: f64,
    /// Probability of a spurious motion trigger in an empty room.
    pub false_trigger: f64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig { seed: 0, n_rooms: 8, samples: 600, dropout: 0.02, false_trigger: 0.01 }
    }
}

/// One sensor sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Room id.
    pub room: u32,
    /// Sample index (time).
    pub t: u32,
    /// Motion-sensor trigger count in this interval (`None` = dropout).
    pub motion: Option<u8>,
    /// Temperature reading in °F (`None` = dropout).
    pub temp_f: Option<f64>,
}

/// A ground-truth occupancy interval: someone was in `room` during
/// `[enter, leave)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Room id.
    pub room: u32,
    /// First occupied sample.
    pub enter: u32,
    /// First sample after they left.
    pub leave: u32,
}

/// Generated streams plus ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorData {
    /// All readings, ordered by (room, t).
    pub readings: Vec<Reading>,
    /// True occupancy intervals.
    pub truth: Vec<Occupancy>,
}

/// Generate sensor streams. Deterministic per config.
pub fn generate(config: &SensorConfig) -> SensorData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut readings = Vec::with_capacity(config.n_rooms * config.samples);
    let mut truth = Vec::new();
    for room in 0..config.n_rooms as u32 {
        // Occupancy intervals: alternating empty/occupied periods.
        let mut occupied_at = vec![false; config.samples];
        let mut t = rng.gen_range(5..40);
        while t + 5 < config.samples {
            let stay = rng.gen_range(5..40);
            let leave = (t + stay).min(config.samples);
            truth.push(Occupancy { room, enter: t as u32, leave: leave as u32 });
            occupied_at[t..leave].iter_mut().for_each(|o| *o = true);
            t = leave + rng.gen_range(10..60);
        }
        // Render readings: motion fires when occupied (with noise);
        // temperature drifts up while occupied.
        let base_temp: f64 = rng.gen_range(64.0..70.0);
        let mut temp: f64 = base_temp;
        for (i, &occ) in occupied_at.iter().enumerate() {
            temp += if occ { 0.05 } else { -0.02 };
            temp = temp.clamp(base_temp - 1.0, base_temp + 4.0);
            let motion = if rng.gen_bool(config.dropout) {
                None
            } else if occ {
                Some(rng.gen_range(1..5u8))
            } else if rng.gen_bool(config.false_trigger) {
                Some(1)
            } else {
                Some(0)
            };
            let temp_f = if rng.gen_bool(config.dropout) {
                None
            } else {
                Some((temp * 10.0).round() / 10.0)
            };
            readings.push(Reading { room, t: i as u32, motion, temp_f });
        }
    }
    SensorData { readings, truth }
}

impl SensorData {
    /// Readings of one room, time-ordered.
    pub fn room(&self, room: u32) -> impl Iterator<Item = &Reading> {
        self.readings.iter().filter(move |r| r.room == room)
    }

    /// Was `room` truly occupied at time `t`?
    pub fn occupied(&self, room: u32, t: u32) -> bool {
        self.truth.iter().any(|o| o.room == room && (o.enter..o.leave).contains(&t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let cfg = SensorConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.readings.len(), cfg.n_rooms * cfg.samples);
        assert!(!a.truth.is_empty());
    }

    #[test]
    fn occupancy_intervals_are_well_formed_and_disjoint() {
        let d = generate(&SensorConfig::default());
        for o in &d.truth {
            assert!(o.enter < o.leave);
        }
        for room in 0..8u32 {
            let mut intervals: Vec<_> = d.truth.iter().filter(|o| o.room == room).collect();
            intervals.sort_by_key(|o| o.enter);
            for w in intervals.windows(2) {
                assert!(w[0].leave <= w[1].enter, "overlap in room {room}");
            }
        }
    }

    #[test]
    fn motion_tracks_occupancy_statistically() {
        let d = generate(&SensorConfig { dropout: 0.0, false_trigger: 0.0, ..Default::default() });
        for r in &d.readings {
            let occ = d.occupied(r.room, r.t);
            let m = r.motion.unwrap();
            assert_eq!(m > 0, occ, "room {} t {}", r.room, r.t);
        }
    }

    #[test]
    fn noise_produces_dropouts_and_false_triggers() {
        let d = generate(&SensorConfig { dropout: 0.1, false_trigger: 0.1, ..Default::default() });
        let dropouts = d.readings.iter().filter(|r| r.motion.is_none()).count();
        assert!(dropouts > 100, "{dropouts}");
        let spurious =
            d.readings.iter().filter(|r| r.motion == Some(1) && !d.occupied(r.room, r.t)).count();
        assert!(spurious > 50, "{spurious}");
    }

    #[test]
    fn temperature_rises_while_occupied() {
        let d = generate(&SensorConfig { dropout: 0.0, ..Default::default() });
        let o = d.truth.iter().find(|o| o.leave - o.enter > 20).expect("a long stay");
        let temp_at = |t: u32| d.room(o.room).find(|r| r.t == t).and_then(|r| r.temp_f).unwrap();
        assert!(temp_at(o.leave - 1) > temp_at(o.enter), "warmth accumulates");
    }
}
