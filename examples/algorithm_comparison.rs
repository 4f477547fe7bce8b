//! Algorithm comparison: run BASE, TRAN and the index-based algorithm (the
//! paper's QUAD/CUTTING, answered by one slab index) on the same workload,
//! verify they agree, and print a small timing table — a miniature,
//! human-readable version of the paper's Figure 10 experiment.
//!
//! ```text
//! cargo run --release -p eclipse-examples --bin algorithm_comparison [n] [d]
//! ```

use std::time::Instant;

use eclipse_core::query::Algorithm;
use eclipse_core::{EclipseEngine, WeightRatioBox};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let d: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    println!("workload: INDE, n = {n}, d = {d}, r[j] ∈ [0.36, 2.75]\n");
    let points = SyntheticConfig::new(n, d, Distribution::Independent, 42).generate();
    let engine = EclipseEngine::new(points)?;
    let ratio_box = WeightRatioBox::uniform(d, 0.36, 2.75)?;

    let algorithms = [
        ("BASE   (Algorithm 1)", Algorithm::Baseline),
        ("TRAN   (Algorithms 2-3)", Algorithm::Transform),
        (
            "INDEX  (Algorithms 5-7, build + probe)",
            Algorithm::IndexQuadtree,
        ),
    ];

    let mut reference: Option<Vec<usize>> = None;
    println!("{:<40} {:>12} {:>10}", "algorithm", "time", "results");
    println!("{}", "-".repeat(66));
    for (label, alg) in algorithms {
        let start = Instant::now();
        let result = engine.eclipse_with(&ratio_box, alg)?;
        let elapsed = start.elapsed();
        println!("{label:<40} {elapsed:>12.2?} {:>10}", result.len());
        match &reference {
            None => reference = Some(result),
            Some(expected) => assert_eq!(&result, expected, "{label} disagrees with BASE"),
        }
    }
    println!(
        "\nall three algorithms returned the same {} eclipse points ✓",
        reference.unwrap().len()
    );

    // Index reuse: the second query on a built index is much cheaper than the
    // first call that had to build it.
    let narrow = WeightRatioBox::uniform(d, 0.84, 1.19)?;
    let start = Instant::now();
    let again = engine.eclipse_with(&narrow, Algorithm::IndexQuadtree)?;
    println!(
        "re-querying the cached index with a narrower box: {:?} for {} points",
        start.elapsed(),
        again.len()
    );
    Ok(())
}
