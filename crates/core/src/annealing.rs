//! Temperature schedules for the Metropolis sampler.
//!
//! The paper notes that MOSCEM adjusts the temperature "according to
//! acceptance rate".  This module packages the schedules the sampler and
//! the ablation benches run behind one type:
//!
//! * [`TemperatureSchedule::Adaptive`] — the paper's acceptance-band
//!   controller (the sampler's default);
//! * [`TemperatureSchedule::Fixed`] — constant temperature (baseline).

use crate::error::ConfigError;

/// A temperature schedule for the fitness-landscape Metropolis test.
#[derive(Debug, Clone, PartialEq)]
pub enum TemperatureSchedule {
    /// Constant temperature.
    Fixed {
        /// The temperature.
        temperature: f64,
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
}

impl TemperatureSchedule {
    /// Initial temperature of the schedule.
    pub fn initial_temperature(&self) -> f64 {
        match self {
            TemperatureSchedule::Fixed { temperature } => *temperature,
            TemperatureSchedule::Adaptive { initial, .. } => *initial,
        }
    }

    /// Check the schedule's invariants: every temperature positive and
    /// finite, and an adaptive band with `low < high`, `min <= max` and a
    /// factor above 1.
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
        }
    }

    /// Create the mutable controller that tracks the schedule during a run.
    pub fn controller(&self) -> TemperatureController {
        TemperatureController {
            schedule: self.clone(),
            temperature: self.initial_temperature(),
        }
    }
}

/// Run-time state of a temperature schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureController {
    schedule: TemperatureSchedule,
    temperature: f64,
}

impl TemperatureController {
    /// The current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Advance the schedule by one iteration given the iteration's
    /// acceptance rate.
    pub fn update(&mut self, acceptance_rate: f64) -> f64 {
        match &self.schedule {
            TemperatureSchedule::Fixed { temperature } => {
                self.temperature = *temperature;
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
        }
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_schedule_never_moves() {
        let mut c = TemperatureSchedule::Fixed { temperature: 0.7 }.controller();
        for rate in [0.0, 0.5, 1.0] {
            assert_eq!(c.update(rate), 0.7);
        }
    }

    #[test]
    fn adaptive_schedule_tracks_the_band() {
        let mut c = crate::SamplerConfig::default().temperature.controller();
        // Starved acceptance -> temperature rises.
        let t_up = c.update(0.05);
        assert!(t_up > 0.25);
        // Too-easy acceptance -> temperature falls.
        let t_down_start = c.temperature();
        let t_down = c.update(0.9);
        assert!(t_down < t_down_start);
        // Inside the band -> unchanged.
        let t_hold = c.temperature();
        assert_eq!(c.update(0.35), t_hold);
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
        for _ in 0..10 {
            c.update(0.0);
        }
        assert!(c.temperature() <= 2.0 + 1e-12);
        for _ in 0..10 {
            c.update(1.0);
        }
        assert!(c.temperature() >= 0.5 - 1e-12);
    }
}
