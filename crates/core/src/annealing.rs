//! Temperature schedules for the Metropolis sampler.
//!
//! The paper notes that MOSCEM adjusts the temperature "according to
//! acceptance rate".  This module packages the schedules the sampler and
//! the ablation benches run behind one type:
//!
//! * [`TemperatureSchedule::Adaptive`] — the paper's acceptance-band
//!   controller (the sampler's default).  It has one recipe, so its
//!   parameters are constants: start at 0.25, multiply by 1.15 while the
//!   acceptance rate is below 0.2, divide by it while the rate is above
//!   0.5, and keep the temperature within `[1e-3, 10]`;
//! * [`TemperatureSchedule::Fixed`] — constant temperature (the ablation
//!   benches' baseline).

use crate::error::ConfigError;

/// Starting temperature of the adaptive schedule.
const ADAPTIVE_INITIAL: f64 = 0.25;
/// Acceptance band `(low, high)` the adaptive schedule steers into.
const ADAPTIVE_BAND: (f64, f64) = (0.2, 0.5);
/// Multiplicative temperature adjustment per iteration outside the band.
const ADAPTIVE_FACTOR: f64 = 1.15;
/// Temperature floor of the adaptive schedule.
const ADAPTIVE_MIN: f64 = 1e-3;
/// Temperature ceiling of the adaptive schedule.
const ADAPTIVE_MAX: f64 = 10.0;

/// A temperature schedule for the fitness-landscape Metropolis test.
#[derive(Debug, Clone, PartialEq)]
pub enum TemperatureSchedule {
    /// Constant temperature.
    Fixed {
        /// The temperature.
        temperature: f64,
    },
    /// Acceptance-band adaptive control (the paper's scheme, with the
    /// constants of the module docs): multiply the temperature when
    /// acceptance drops below the band, divide when it rises above it.
    Adaptive,
}

impl TemperatureSchedule {
    /// Initial temperature of the schedule.
    pub fn initial_temperature(&self) -> f64 {
        match self {
            TemperatureSchedule::Fixed { temperature } => *temperature,
            TemperatureSchedule::Adaptive => ADAPTIVE_INITIAL,
        }
    }

    /// Check the schedule's invariant: its starting temperature (the only
    /// one a fixed schedule has) must be positive and finite.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let value = self.initial_temperature();
        if value > 0.0 && value.is_finite() {
            Ok(())
        } else {
            Err(ConfigError::NonPositiveTemperature { value })
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
            TemperatureSchedule::Adaptive => {
                if acceptance_rate < ADAPTIVE_BAND.0 {
                    self.temperature = (self.temperature * ADAPTIVE_FACTOR).min(ADAPTIVE_MAX);
                } else if acceptance_rate > ADAPTIVE_BAND.1 {
                    self.temperature = (self.temperature / ADAPTIVE_FACTOR).max(ADAPTIVE_MIN);
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
        // Enough starved iterations to pass the ceiling, then enough
        // too-easy ones to pass the floor: the clamps hold exactly.
        let mut c = TemperatureSchedule::Adaptive.controller();
        for _ in 0..60 {
            c.update(0.0);
        }
        assert_eq!(c.temperature(), ADAPTIVE_MAX);
        for _ in 0..120 {
            c.update(1.0);
        }
        assert_eq!(c.temperature(), ADAPTIVE_MIN);
    }
}
