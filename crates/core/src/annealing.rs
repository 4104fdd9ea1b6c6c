//! Temperature schedules for the Metropolis sampler.
//!
//! The paper notes that "temperature annealing techniques can be used to
//! achieve fast barrier crossing" (citing accelerated simulated tempering)
//! and that MOSCEM adjusts the temperature "according to acceptance rate".
//! This module packages the supported schedules behind one type so the
//! sampler, the ablation benches and downstream users can swap them:
//!
//! * [`TemperatureSchedule::Adaptive`] — the paper's acceptance-band
//!   controller (the sampler's default);
//! * [`TemperatureSchedule::Geometric`] — classic simulated annealing
//!   `T_k = T_0 · r^k`;
//! * [`TemperatureSchedule::Tempering`] — accelerated simulated tempering:
//!   a ladder of temperatures with stochastic up/down moves, biased upward
//!   when the chain stops accepting (fast barrier crossing).
//! * [`TemperatureSchedule::Fixed`] — constant temperature (baseline).

use crate::error::ConfigError;
use rand::Rng;

/// A temperature schedule for the fitness-landscape Metropolis test.
#[derive(Debug, Clone, PartialEq)]
pub enum TemperatureSchedule {
    /// Constant temperature.
    Fixed {
        /// The temperature.
        temperature: f64,
    },
    /// Geometric cooling `T_k = T_0 · ratio^k`, clamped at `min`.
    Geometric {
        /// Starting temperature.
        initial: f64,
        /// Cooling ratio per iteration (0 < ratio < 1).
        ratio: f64,
        /// Temperature floor.
        min: f64,
    },
    /// Acceptance-band adaptive control (the paper's scheme): multiply the
    /// temperature when acceptance drops below the band, divide when it
    /// rises above it.
    Adaptive {
        /// Starting temperature.
        initial: f64,
        /// Acceptance band (low, high).
        band: (f64, f64),
        /// Adjustment factor (> 1).
        factor: f64,
        /// Temperature floor.
        min: f64,
        /// Temperature ceiling.
        max: f64,
    },
    /// Accelerated simulated tempering over a discrete ladder.
    Tempering {
        /// The temperature ladder, ordered from coldest to hottest.
        ladder: Vec<f64>,
        /// Probability of proposing a rung change each iteration.
        move_probability: f64,
    },
}

impl TemperatureSchedule {
    /// Initial temperature of the schedule.
    pub fn initial_temperature(&self) -> f64 {
        match self {
            TemperatureSchedule::Fixed { temperature } => *temperature,
            TemperatureSchedule::Geometric { initial, .. } => *initial,
            TemperatureSchedule::Adaptive { initial, .. } => *initial,
            TemperatureSchedule::Tempering { ladder, .. } => {
                *ladder.first().expect("tempering ladder must not be empty")
            }
        }
    }

    /// Check the schedule's invariants: every temperature positive and
    /// finite, an adaptive band with `low < high`, `min <= max` and a factor
    /// above 1, a geometric ratio in `(0, 1)`, and a non-empty tempering
    /// ladder with a move probability in `[0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let positive = |value: f64| {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(ConfigError::NonPositiveTemperature { value })
            }
        };
        match self {
            TemperatureSchedule::Fixed { temperature } => positive(*temperature),
            TemperatureSchedule::Geometric {
                initial,
                ratio,
                min,
            } => {
                positive(*initial)?;
                positive(*min)?;
                if !(*ratio > 0.0 && *ratio < 1.0) {
                    return Err(ConfigError::CoolingRatioOutOfRange { ratio: *ratio });
                }
                Ok(())
            }
            TemperatureSchedule::Adaptive {
                initial,
                band: (low, high),
                factor,
                min,
                max,
            } => {
                positive(*initial)?;
                positive(*min)?;
                positive(*max)?;
                if low >= high || low.is_nan() || high.is_nan() {
                    return Err(ConfigError::InvalidAcceptanceBand {
                        low: *low,
                        high: *high,
                    });
                }
                if min > max {
                    return Err(ConfigError::InvertedTemperatureBounds {
                        min: *min,
                        max: *max,
                    });
                }
                if *factor <= 1.0 || factor.is_nan() {
                    return Err(ConfigError::TemperatureAdjustNotAboveOne { factor: *factor });
                }
                Ok(())
            }
            TemperatureSchedule::Tempering {
                ladder,
                move_probability,
            } => {
                if ladder.is_empty() {
                    return Err(ConfigError::EmptyTemperatureLadder);
                }
                ladder.iter().try_for_each(|&t| positive(t))?;
                if !(0.0..=1.0).contains(move_probability) {
                    return Err(ConfigError::MoveProbabilityOutOfRange {
                        probability: *move_probability,
                    });
                }
                Ok(())
            }
        }
    }

    /// Create the mutable controller that tracks the schedule during a run.
    pub fn controller(&self) -> TemperatureController {
        TemperatureController {
            schedule: self.clone(),
            temperature: self.initial_temperature(),
            iteration: 0,
            rung: 0,
        }
    }
}

/// Run-time state of a temperature schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureController {
    schedule: TemperatureSchedule,
    temperature: f64,
    iteration: usize,
    rung: usize,
}

impl TemperatureController {
    /// The current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// The number of updates applied so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Advance the schedule by one iteration given the iteration's
    /// acceptance rate.  `rng` is only used by the tempering schedule.
    pub fn update<R: Rng + ?Sized>(&mut self, acceptance_rate: f64, rng: &mut R) -> f64 {
        self.iteration += 1;
        match &self.schedule {
            TemperatureSchedule::Fixed { temperature } => {
                self.temperature = *temperature;
            }
            TemperatureSchedule::Geometric {
                initial,
                ratio,
                min,
            } => {
                self.temperature = (initial * ratio.powi(self.iteration as i32)).max(*min);
            }
            TemperatureSchedule::Adaptive {
                band,
                factor,
                min,
                max,
                ..
            } => {
                if acceptance_rate < band.0 {
                    self.temperature = (self.temperature * factor).min(*max);
                } else if acceptance_rate > band.1 {
                    self.temperature = (self.temperature / factor).max(*min);
                }
            }
            TemperatureSchedule::Tempering {
                ladder,
                move_probability,
            } => {
                if rng.gen::<f64>() < *move_probability {
                    // Bias upward (hotter) when the chain is frozen, downward
                    // when it accepts freely — the "accelerated" part.
                    let go_up = if acceptance_rate < 0.1 {
                        true
                    } else if acceptance_rate > 0.6 {
                        false
                    } else {
                        rng.gen::<bool>()
                    };
                    if go_up && self.rung + 1 < ladder.len() {
                        self.rung += 1;
                    } else if !go_up && self.rung > 0 {
                        self.rung -= 1;
                    }
                }
                self.temperature = ladder[self.rung];
            }
        }
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::StreamRngFactory;

    fn rng() -> rand_chacha::ChaCha8Rng {
        StreamRngFactory::new(1).stream(0, 0)
    }

    #[test]
    fn fixed_schedule_never_moves() {
        let mut c = TemperatureSchedule::Fixed { temperature: 0.7 }.controller();
        let mut r = rng();
        for rate in [0.0, 0.5, 1.0] {
            assert_eq!(c.update(rate, &mut r), 0.7);
        }
        assert_eq!(c.iteration(), 3);
    }

    #[test]
    fn geometric_schedule_cools_monotonically_to_floor() {
        let mut c = TemperatureSchedule::Geometric {
            initial: 1.0,
            ratio: 0.5,
            min: 0.05,
        }
        .controller();
        let mut r = rng();
        let mut last = c.temperature();
        for _ in 0..10 {
            let t = c.update(0.3, &mut r);
            assert!(t <= last + 1e-12);
            last = t;
        }
        assert!((last - 0.05).abs() < 1e-12, "cooled past the floor: {last}");
    }

    #[test]
    fn adaptive_schedule_tracks_the_band() {
        let mut c = crate::SamplerConfig::default().temperature.controller();
        let mut r = rng();
        // Starved acceptance -> temperature rises.
        let t_up = c.update(0.05, &mut r);
        assert!(t_up > 0.25);
        // Too-easy acceptance -> temperature falls.
        let t_down_start = c.temperature();
        let t_down = c.update(0.9, &mut r);
        assert!(t_down < t_down_start);
        // Inside the band -> unchanged.
        let t_hold = c.temperature();
        assert_eq!(c.update(0.35, &mut r), t_hold);
    }

    #[test]
    fn adaptive_schedule_respects_bounds() {
        let mut c = TemperatureSchedule::Adaptive {
            initial: 1.0,
            band: (0.2, 0.5),
            factor: 3.0,
            min: 0.5,
            max: 2.0,
        }
        .controller();
        let mut r = rng();
        for _ in 0..10 {
            c.update(0.0, &mut r);
        }
        assert!(c.temperature() <= 2.0 + 1e-12);
        for _ in 0..10 {
            c.update(1.0, &mut r);
        }
        assert!(c.temperature() >= 0.5 - 1e-12);
    }

    #[test]
    fn tempering_walks_the_ladder_and_heats_when_frozen() {
        let ladder = vec![0.1, 0.2, 0.4, 0.8];
        let mut c = TemperatureSchedule::Tempering {
            ladder: ladder.clone(),
            move_probability: 1.0,
        }
        .controller();
        let mut r = rng();
        assert_eq!(c.temperature(), 0.1);
        // Frozen chain: always moves up until the top rung.
        for _ in 0..10 {
            c.update(0.0, &mut r);
        }
        assert_eq!(c.temperature(), 0.8);
        // Freely accepting chain: cools back down.
        for _ in 0..10 {
            c.update(0.9, &mut r);
        }
        assert_eq!(c.temperature(), 0.1);
        // Temperatures always come from the ladder.
        for _ in 0..20 {
            let t = c.update(0.3, &mut r);
            assert!(ladder.contains(&t));
        }
    }

    #[test]
    #[should_panic]
    fn empty_tempering_ladder_panics() {
        let _ = TemperatureSchedule::Tempering {
            ladder: vec![],
            move_probability: 0.5,
        }
        .initial_temperature();
    }
}
