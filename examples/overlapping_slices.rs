//! Overlapping slices — the paper's future work, runnable.
//!
//! ```sh
//! cargo run --release --example overlapping_slices
//! ```
//!
//! Section 2.1 defines slices by conjunctions like
//! `region = Europe ∧ gender = Female`; Section 8 lists *overlapping*
//! slices as future work. Here the monitored slices are the marginals —
//! two regions and two genders, so each example belongs to one region
//! slice AND one gender slice — while acquisition happens per atom
//! (region × gender cell). `st_optim::solve_overlap` decides how many
//! examples of each cell to buy.

use st_curve::PowerLaw;
use st_optim::{solve_overlap, OverlapProblem};

fn main() {
    // Monitored (overlapping) slices and their fitted learning curves.
    let slices = [
        "region=Europe",
        "region=APAC",
        "gender=Female",
        "gender=Male",
    ];
    let curves = vec![
        PowerLaw::new(4.0, 0.35), // Europe: moderately steep
        PowerLaw::new(6.0, 0.45), // APAC: underserved, steep curve
        PowerLaw::new(5.0, 0.40), // Female: high loss
        PowerLaw::new(2.5, 0.15), // Male: near saturation
    ];
    // Current slice sizes (each example counts toward two slices).
    let slice_sizes = vec![700.0, 300.0, 400.0, 600.0];

    // Atoms = the acquirable intersection cells.
    let atoms = ["EU·F", "EU·M", "AP·F", "AP·M"];
    // membership[slice][atom]
    let membership = vec![
        vec![true, true, false, false], // Europe
        vec![false, false, true, true], // APAC
        vec![true, false, true, false], // Female
        vec![false, true, false, true], // Male
    ];
    // APAC examples are harder to source (cf. Table 1's cost spread).
    let atom_costs = vec![1.0, 1.0, 1.4, 1.3];
    let budget = 1000.0;

    let problem = OverlapProblem::new(
        curves.clone(),
        slice_sizes.clone(),
        membership,
        atom_costs.clone(),
        budget,
        1.0,
    );

    println!(
        "current per-slice losses (avg A = {:.3}):",
        problem.avg_loss()
    );
    for (name, (c, &s)) in slices.iter().zip(curves.iter().zip(&slice_sizes)) {
        println!("  {name:<16} loss {:.3}  (n = {s})", c.eval(s));
    }

    let d = solve_overlap(&problem);
    println!("\nbudget {budget} allocated per atom:");
    for ((name, &x), &c) in atoms.iter().zip(&d).zip(&atom_costs) {
        println!(
            "  {name:<6} {:>7.0} examples  (cost {c}/ea → {:.0} spent)",
            x,
            x * c
        );
    }

    let after = problem.slice_sizes_after(&d);
    println!("\nprojected effect on every monitored slice:");
    for (i, name) in slices.iter().enumerate() {
        println!(
            "  {name:<16} n {:>5.0} → {:>5.0}   loss {:.3} → {:.3}",
            slice_sizes[i],
            after[i],
            curves[i].eval(slice_sizes[i]),
            curves[i].eval(after[i]),
        );
    }
    println!(
        "\nobjective {:.4} → {:.4} (shared atoms let one purchase serve two slices)",
        problem.objective(&[0.0; 4]),
        problem.objective(&d)
    );
    assert!(problem.is_feasible(&d, 1e-6));
}
