//! A synthetic NBA-like dataset.
//!
//! The paper evaluates on a real dataset of 2384 NBA players with five
//! career-total attributes — Points, Rebounds, Assists, Steals and Blocks —
//! scraped from stats.nba.com in 2015.  That file is not redistributable and
//! is unavailable offline, so this module generates a synthetic league whose
//! statistical *shape* matches what the experiments actually depend on:
//!
//! * heavy-tailed, non-negative career totals (log-normal-ish marginals: many
//!   journeymen, a few superstars);
//! * strong positive correlation across attributes driven by a shared latent
//!   "career length × minutes played" factor (long careers inflate every
//!   counter), with role-archetype variation on top (big men block and
//!   rebound, guards assist and steal);
//! * a skyline/eclipse cardinality in the same ballpark as mildly correlated
//!   real data — which is what determines relative algorithm performance.
//!
//! Because the eclipse operator prefers *small* attribute values (distance to
//! the query point at the origin), [`nba_dataset`] returns **negated-rank
//! style "cost" coordinates**: `max_value − value` per attribute, so that
//! better players are closer to the origin, mirroring how the paper feeds
//! "bigger is better" stats to a minimising operator.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use eclipse_geom::point::Point;

/// Number of players in the paper's dataset (and in the synthetic stand-in).
pub const NBA_PLAYER_COUNT: usize = 2384;

/// The five performance attributes of the paper, in order.
pub const NBA_ATTRIBUTES: [&str; 5] = ["PTS", "REB", "AST", "STL", "BLK"];

/// One synthetic player with raw (bigger-is-better) career totals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NbaPlayer {
    /// Synthetic display name, e.g. `"Player 0042"`.
    pub name: String,
    /// Career points.
    pub points: f64,
    /// Career rebounds.
    pub rebounds: f64,
    /// Career assists.
    pub assists: f64,
    /// Career steals.
    pub steals: f64,
    /// Career blocks.
    pub blocks: f64,
}

impl NbaPlayer {
    /// The raw attribute vector `[PTS, REB, AST, STL, BLK]`.
    pub fn raw(&self) -> [f64; 5] {
        [
            self.points,
            self.rebounds,
            self.assists,
            self.steals,
            self.blocks,
        ]
    }
}

/// Player archetypes controlling how the shared career factor is distributed
/// across attributes.
#[derive(Clone, Copy)]
struct Archetype {
    weight: f64,
    profile: [f64; 5], // relative emphasis on PTS, REB, AST, STL, BLK
}

const ARCHETYPES: [Archetype; 4] = [
    // Scoring guards: points + assists + steals.
    Archetype {
        weight: 0.35,
        profile: [1.0, 0.35, 0.9, 0.8, 0.1],
    },
    // Wings: balanced.
    Archetype {
        weight: 0.3,
        profile: [0.9, 0.6, 0.5, 0.6, 0.3],
    },
    // Big men: rebounds + blocks.
    Archetype {
        weight: 0.25,
        profile: [0.8, 1.0, 0.25, 0.3, 1.0],
    },
    // Role players: a bit of everything, lower usage.
    Archetype {
        weight: 0.1,
        profile: [0.5, 0.5, 0.5, 0.5, 0.4],
    },
];

/// Generates the full synthetic league of [`NBA_PLAYER_COUNT`] players.
pub fn generate_players(seed: u64) -> Vec<NbaPlayer> {
    generate_players_with_count(NBA_PLAYER_COUNT, seed)
}

/// Generates a synthetic league with an explicit player count (used by the
/// scaling experiments that subsample the NBA dataset).
pub fn generate_players_with_count(count: usize, seed: u64) -> Vec<NbaPlayer> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            // Latent career volume: log-normal-ish (many short careers, a few
            // very long ones), expressed in "games × usage" pseudo-units.
            let z: f64 = standard_normal(&mut rng);
            let career = (6.0 + 1.1 * z).exp().clamp(30.0, 60_000.0);
            let archetype = pick_archetype(&mut rng);
            // Per-attribute per-career rates with noise.
            let noise = |rng: &mut ChaCha8Rng| 0.6 + 0.8 * rng.gen::<f64>();
            let pts = career * 0.55 * archetype.profile[0] * noise(&mut rng);
            let reb = career * 0.25 * archetype.profile[1] * noise(&mut rng);
            let ast = career * 0.15 * archetype.profile[2] * noise(&mut rng);
            let stl = career * 0.045 * archetype.profile[3] * noise(&mut rng);
            let blk = career * 0.035 * archetype.profile[4] * noise(&mut rng);
            NbaPlayer {
                name: format!("Player {i:04}"),
                points: pts.round(),
                rebounds: reb.round(),
                assists: ast.round(),
                steals: stl.round(),
                blocks: blk.round(),
            }
        })
        .collect()
}

/// The synthetic NBA dataset as minimisation-ready points.
///
/// Each player becomes a point whose `j`-th coordinate is
/// `max_j − value_j` (so the best player on an attribute sits at 0), keeping
/// the first `d` of the five attributes.  `d` must be between 2 and 5 — the
/// paper's Figure 11 varies exactly this.
///
/// # Panics
/// Panics if `d` is outside `2..=5` or `count == 0`.
pub fn nba_dataset(count: usize, d: usize, seed: u64) -> Vec<Point> {
    assert!(
        (2..=5).contains(&d),
        "the NBA dataset has 5 attributes; d must be in 2..=5"
    );
    assert!(count > 0, "count must be positive");
    let players = generate_players_with_count(count, seed);
    points_from_players(&players, d)
}

/// Converts raw players into minimisation-ready points over the first `d`
/// attributes (`max − value` per attribute).
pub fn points_from_players(players: &[NbaPlayer], d: usize) -> Vec<Point> {
    assert!((2..=5).contains(&d), "d must be in 2..=5");
    let mut maxima = [0.0f64; 5];
    for p in players {
        for (j, v) in p.raw().iter().enumerate() {
            maxima[j] = maxima[j].max(*v);
        }
    }
    players
        .iter()
        .map(|p| {
            let raw = p.raw();
            Point::new((0..d).map(|j| maxima[j] - raw[j]).collect())
        })
        .collect()
}

fn pick_archetype(rng: &mut ChaCha8Rng) -> Archetype {
    let total: f64 = ARCHETYPES.iter().map(|a| a.weight).sum();
    let mut roll = rng.gen_range(0.0..total);
    for a in ARCHETYPES {
        if roll < a.weight {
            return a;
        }
        roll -= a.weight;
    }
    ARCHETYPES[ARCHETYPES.len() - 1]
}

/// Box–Muller standard normal sample.
fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pearson_correlation;
    use eclipse_skyline::bnl::skyline_bnl;

    #[test]
    fn league_has_expected_size_and_positivity() {
        let players = generate_players(1);
        assert_eq!(players.len(), NBA_PLAYER_COUNT);
        for p in &players {
            for v in p.raw() {
                assert!(v >= 0.0 && v.is_finite());
            }
        }
        assert_eq!(players[7].name, "Player 0007");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_players(5), generate_players(5));
        assert_ne!(generate_players(5), generate_players(6));
    }

    #[test]
    fn attributes_are_positively_correlated() {
        let players = generate_players(2);
        let pts: Vec<f64> = players.iter().map(|p| p.points).collect();
        let reb: Vec<f64> = players.iter().map(|p| p.rebounds).collect();
        let ast: Vec<f64> = players.iter().map(|p| p.assists).collect();
        assert!(pearson_correlation(&pts, &reb) > 0.4);
        assert!(pearson_correlation(&pts, &ast) > 0.4);
    }

    #[test]
    fn totals_are_heavy_tailed() {
        let players = generate_players(3);
        let pts: Vec<f64> = players.iter().map(|p| p.points).collect();
        let mean = crate::stats::mean(&pts);
        let med = crate::stats::median(&pts).unwrap();
        // Right-skew: the mean sits well above the median.
        assert!(mean > 1.2 * med, "mean {mean}, median {med}");
        let max = pts.iter().cloned().fold(0.0, f64::max);
        assert!(max > 8.0 * mean, "max {max}, mean {mean}");
    }

    #[test]
    fn dataset_points_are_minimisation_ready() {
        let pts = nba_dataset(500, 3, 9);
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|p| p.dim() == 3));
        // All coordinates non-negative, and some player attains 0 on each axis
        // (the per-attribute maximum).
        for j in 0..3 {
            assert!(pts.iter().all(|p| p.coord(j) >= 0.0));
            assert!(pts.iter().any(|p| p.coord(j) == 0.0));
        }
    }

    #[test]
    fn skyline_is_small_relative_to_league_size() {
        // Positively correlated data keeps the skyline small — the property
        // the paper's NBA experiments exhibit (their eclipse results have a
        // handful of famous players).
        let pts = nba_dataset(1000, 3, 4);
        let sky = skyline_bnl(&pts);
        assert!(
            sky.len() < 100,
            "NBA-like skyline should be small, got {}",
            sky.len()
        );
        assert!(!sky.is_empty());
    }

    #[test]
    fn dimension_bounds_are_enforced() {
        let players = generate_players_with_count(10, 0);
        assert_eq!(points_from_players(&players, 5).len(), 10);
        let r = std::panic::catch_unwind(|| nba_dataset(10, 6, 0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| nba_dataset(10, 1, 0));
        assert!(r.is_err());
    }
}
