//! NBA scouting with eclipse queries — the paper's real-data scenario on the
//! synthetic league that stands in for the 2015 stats.nba.com snapshot.
//!
//! A scout wants "all-around great players", but different front offices
//! weigh scoring versus the defensive counters differently.  Instead of one
//! arbitrary weight vector (kNN) or an unmanageable skyline, the scout runs
//! eclipse queries with progressively narrower ratio ranges and watches the
//! candidate pool shrink.
//!
//! ```text
//! cargo run -p eclipse-examples --bin nba_scouting
//! ```

use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, WeightRatioBox};
use eclipse_data::nba::{generate_players, points_from_players, NBA_ATTRIBUTES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let players = generate_players(2015);
    let d = 3; // PTS, REB, AST — the first three attributes, as in the paper's d = 3 default
    let points = points_from_players(&players, d);
    let engine = EclipseEngine::new(points)?;

    println!(
        "Synthetic league: {} players, attributes = {:?}",
        players.len(),
        &NBA_ATTRIBUTES[..d]
    );

    // Build the index once: the scout will issue many queries.
    let index = engine.build_index(IntersectionIndexKind::Quadtree)?;
    println!(
        "index: {} skyline players, {} intersection hyperplanes, {} KiB\n",
        index.skyline_len(),
        index.num_intersections(),
        index.heap_bytes() / 1024
    );

    let skyline = engine.skyline();
    println!(
        "skyline (all possible favourites under any monotone scoring): {} players",
        skyline.len()
    );

    // Progressively narrower preference bands (Table IV's ratio ranges).
    for (label, lo, hi) in [
        ("very rough preference   r ∈ [0.18, 5.67]", 0.18, 5.67),
        ("rough preference        r ∈ [0.36, 2.75]", 0.36, 2.75),
        ("narrow preference       r ∈ [0.58, 1.73]", 0.58, 1.73),
        ("almost exact preference r ∈ [0.84, 1.19]", 0.84, 1.19),
    ] {
        let b = WeightRatioBox::uniform(d, lo, hi)?;
        let shortlist = engine.eclipse(&b)?;
        let names: Vec<&str> = shortlist
            .iter()
            .take(6)
            .map(|&i| players[i].name.as_str())
            .collect();
        println!(
            "{label}: {:>3} players  e.g. {}",
            shortlist.len(),
            names.join(", ")
        );
    }

    // Result-budget mode: "give me at most 8 candidates and tell me how much
    // preference slack that budget buys" (k-eclipse, DESIGN.md §2 item 22).
    let budgeted = engine.eclipse_top_k(&[1.0, 1.0], 8)?;
    println!(
        "\nbudget of 8 around r = <1,1>: {} players within relaxation margin ±{:.0}% ({})",
        budgeted.indices.len(),
        budgeted.margin.unwrap_or(0.0) * 100.0,
        budgeted.ratio_box
    );

    // An exact weight vector for comparison (classic kNN).
    let top3 = engine.knn(&[1.0, 1.0], 3)?;
    println!("\nkNN top-3 for the exact weights <1, 1, 1>:");
    for n in top3 {
        let p = &players[n.index];
        println!(
            "    {:<12} PTS {:>6.0}  REB {:>6.0}  AST {:>6.0}",
            p.name, p.points, p.rebounds, p.assists
        );
    }

    // The narrower the band, the smaller the shortlist — and every shortlist
    // stays inside the skyline.
    let narrow = engine.eclipse(&WeightRatioBox::uniform(d, 0.84, 1.19)?)?;
    let wide = engine.eclipse(&WeightRatioBox::uniform(d, 0.18, 5.67)?)?;
    assert!(narrow.len() <= wide.len());
    assert!(wide.len() <= skyline.len());
    println!("\n(check) narrow ⊆ wide ⊆ skyline candidate pools ✓");
    Ok(())
}
