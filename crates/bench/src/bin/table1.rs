//! Table 1: the collection costs of UTKFace slices, proportional to the
//! average seconds an MTurk task takes.
//!
//! Runs the crowdsourcing simulator for a batch of tasks per slice and
//! derives the cost row from the *observed* mean latencies — the same
//! normalization the paper applies to its measured times.

use slice_tuner::{AcquisitionSource, CrowdConfig, CrowdSimulator};
use st_bench::rule;
use st_data::{families, SliceId};

fn main() {
    let family = families::faces();
    let mut sim = CrowdSimulator::new(family.clone(), CrowdConfig::utkface(), 1);
    let per_slice = if st_bench::quick() { 100 } else { 500 };
    for i in 0..family.num_slices() {
        let _ = sim.acquire(SliceId(i), per_slice);
    }

    println!("Table 1: collection costs of UTKFace slices");
    println!("(observed over {per_slice} accepted images per slice)\n");
    let header: Vec<String> = family.slice_names().iter().map(|n| shorten(n)).collect();
    println!("{:<14} {}", "", header.join("  "));
    rule(14 + header.len() * 6);
    let means = sim.stats().mean_seconds();
    let row: Vec<String> = means.iter().map(|m| format!("{m:>5.1}")).collect();
    println!("{:<14} {}", "Avg. time (s)", row.join(" "));
    let costs = sim.stats().derived_costs();
    let row: Vec<String> = costs.iter().map(|c| format!("{c:>5.1}")).collect();
    println!("{:<14} {}", "Cost C", row.join(" "));

    println!("\npaper reference:");
    let row: Vec<String> = families::faces::FACE_TASK_SECONDS
        .iter()
        .map(|m| format!("{m:>5.1}"))
        .collect();
    println!("{:<14} {}", "Avg. time (s)", row.join(" "));
    let row: Vec<String> = families::faces::FACE_COSTS
        .iter()
        .map(|c| format!("{c:>5.1}"))
        .collect();
    println!("{:<14} {}", "Cost C", row.join(" "));

    let st = sim.stats();
    println!(
        "\npipeline: {} tasks, {} duplicates removed, {} mistakes filtered, ${:.2} paid",
        st.tasks.iter().sum::<usize>(),
        st.duplicates.iter().sum::<usize>(),
        st.mistakes.iter().sum::<usize>(),
        st.dollars
    );
}

fn shorten(name: &str) -> String {
    // White_Male -> W_M, matching the paper's header.
    name.split('_')
        .map(|p| &p[..1])
        .collect::<Vec<_>>()
        .join("_")
}
