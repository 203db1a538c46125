//! MCKP problem definition.

use crate::MckpError;

/// One VM-configuration option for a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Human-readable label (e.g. `"r5.xlarge (4 vCPU)"`).
    pub label: String,
    /// Predicted runtime in whole seconds (the paper rounds to seconds
    /// because cloud machines bill per second).
    pub runtime_secs: u64,
    /// Cost in USD of running the stage on this configuration.
    pub cost_usd: f64,
}

impl Choice {
    /// Build a choice.
    #[must_use]
    pub fn new(label: impl Into<String>, runtime_secs: u64, cost_usd: f64) -> Self {
        Self {
            label: label.into(),
            runtime_secs,
            cost_usd,
        }
    }
}

/// One flow stage with its configuration choices.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name (e.g. `"placement"`).
    pub name: String,
    /// Candidate configurations.
    pub choices: Vec<Choice>,
}

impl Stage {
    /// Build a stage.
    #[must_use]
    pub fn new(name: impl Into<String>, choices: Vec<Choice>) -> Self {
        Self {
            name: name.into(),
            choices,
        }
    }

    /// The fastest choice (used for feasibility checks).
    fn fastest(&self) -> Option<&Choice> {
        self.choices.iter().min_by_key(|c| c.runtime_secs)
    }
}

/// A validated MCKP instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    stages: Vec<Stage>,
}

impl Problem {
    /// Validate and build a problem.
    ///
    /// # Errors
    ///
    /// Returns [`MckpError::NoStages`], [`MckpError::EmptyStage`], or
    /// [`MckpError::InvalidCost`] when the instance is malformed.
    pub fn new(stages: Vec<Stage>) -> Result<Self, MckpError> {
        // The conditions the solver relies on.
        if stages.is_empty() {
            return Err(MckpError::NoStages);
        }
        for stage in &stages {
            if stage.choices.is_empty() {
                return Err(MckpError::EmptyStage(stage.name.clone()));
            }
            for choice in &stage.choices {
                if !choice.cost_usd.is_finite() || choice.cost_usd < 0.0 {
                    return Err(MckpError::InvalidCost {
                        stage: stage.name.clone(),
                        choice: choice.label.clone(),
                    });
                }
            }
        }
        Ok(Self { stages })
    }

    /// The stages.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Minimum achievable total runtime (fastest choice everywhere).
    #[must_use]
    pub fn min_total_runtime(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.fastest().map_or(0, |c| c.runtime_secs))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_instances() {
        assert_eq!(Problem::new(vec![]).unwrap_err(), MckpError::NoStages);
        assert_eq!(
            Problem::new(vec![Stage::new("syn", vec![])]).unwrap_err(),
            MckpError::EmptyStage("syn".to_owned())
        );
        // An empty stage behind a valid one is named too.
        let late = Problem::new(vec![
            Stage::new("syn", vec![Choice::new("1v", 10, 0.1)]),
            Stage::new("route", vec![]),
        ]);
        assert_eq!(late.unwrap_err(), MckpError::EmptyStage("route".to_owned()));
        let bad = Problem::new(vec![Stage::new(
            "syn",
            vec![Choice::new("x", 10, f64::NAN)],
        )]);
        assert!(matches!(bad.unwrap_err(), MckpError::InvalidCost { .. }));
    }

    #[test]
    fn fastest_is_by_runtime() {
        let stage = Stage::new(
            "route",
            vec![
                Choice::new("slow-cheap", 100, 0.10),
                Choice::new("fast-dear", 10, 0.90),
            ],
        );
        assert_eq!(stage.fastest().unwrap().label, "fast-dear");
    }

    #[test]
    fn min_total_runtime_sums_fastest() {
        let p = Problem::new(vec![
            Stage::new("a", vec![Choice::new("x", 10, 0.1), Choice::new("y", 4, 0.5)]),
            Stage::new("b", vec![Choice::new("x", 7, 0.1)]),
        ])
        .unwrap();
        assert_eq!(p.min_total_runtime(), 11);
    }
}
