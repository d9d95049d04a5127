//! Result formatting: markdown and CSV writers for experiment outputs.
//!
//! The `paper` bench binary and the CLI's `experiment` print their tables
//! through these writers, so every table has one consistent, diffable
//! layout. A row is a label and its aggregate: the strategy's name where
//! that identifies the row, or what does (a λ, an estimation mode, a
//! bandit's ε).

use crate::runner::AggregateResult;

/// Renders a markdown table in the layout of the paper's Table 2 / Table 6:
/// one row per labelled result with loss and avg/max EER summaries, under
/// an "Original" row read from the first result (the rows of one table run
/// the same trial datasets, and `original` is measured before any
/// acquisition).
pub fn methods_markdown(title: &str, rows: &[(&str, &AggregateResult)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str("| Method | Loss | Avg. EER | Max. EER | # Iters | Trainings |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    if let Some((_, first)) = rows.first() {
        out.push_str(&format!(
            "| Original | {} | {} | {} | n/a | n/a |\n",
            first.original_loss, first.original_avg_eer, first.original_max_eer
        ));
    }
    for (label, r) in rows {
        out.push_str(&format!(
            "| {label} | {} | {} | {} | {:.1} | {:.1} |\n",
            r.loss, r.avg_eer, r.max_eer, r.iterations, r.trainings
        ));
    }
    out
}

/// Renders the per-slice acquisition table (the paper's Table 3 / Table 5
/// layout): one row per labelled result, one column per slice, each mean
/// rounded half away from zero.
pub fn acquisition_markdown(
    title: &str,
    slice_names: &[&str],
    initial_sizes: &[usize],
    rows: &[(&str, &AggregateResult)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str("| Method |");
    for name in slice_names {
        out.push_str(&format!(" {name} |"));
    }
    out.push_str(" # Iters |\n|---|");
    for _ in slice_names {
        out.push_str("---|");
    }
    out.push_str("---|\n| Original |");
    for s in initial_sizes {
        out.push_str(&format!(" {s} |"));
    }
    out.push_str(" n/a |\n");
    for (label, r) in rows {
        out.push_str(&format!("| {label} |"));
        for a in &r.acquired_mean {
            out.push_str(&format!(" {} |", a.round()));
        }
        out.push_str(&format!(" {:.1} |\n", r.iterations));
    }
    out
}

/// CSV export of labelled summaries (one row per result, header included),
/// for plotting outside the repo.
pub fn methods_csv(rows: &[(&str, &AggregateResult)]) -> String {
    let mut out = String::from(
        "method,loss_mean,loss_std,avg_eer_mean,avg_eer_std,max_eer_mean,max_eer_std,iterations,trainings\n",
    );
    for (label, r) in rows {
        out.push_str(&format!(
            "{label},{},{},{},{},{},{},{},{}\n",
            r.loss.mean,
            r.loss.std,
            r.avg_eer.mean,
            r.avg_eer.std,
            r.max_eer.mean,
            r.max_eer.std,
            r.iterations,
            r.trainings
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Summary;
    use crate::strategy::Strategy;

    fn fake_row(strategy: Strategy, loss: f64) -> AggregateResult {
        let s = |m: f64| Summary { mean: m, std: 0.01 };
        AggregateResult {
            strategy,
            original_loss: s(0.5),
            original_avg_eer: s(0.2),
            original_max_eer: s(0.4),
            loss: s(loss),
            avg_eer: s(0.1),
            max_eer: s(0.3),
            acquired_mean: vec![10.0, 20.0],
            iterations: 2.0,
            trainings: 8.0,
            trials: vec![],
        }
    }

    #[test]
    fn methods_table_contains_all_rows_and_header() {
        let (uni, one) = (
            fake_row(Strategy::Uniform, 0.4),
            fake_row(Strategy::OneShot, 0.35),
        );
        let md = methods_markdown("Table 2 — census", &[("Uniform", &uni), ("λ = 0.1", &one)]);
        assert!(md.contains("### Table 2 — census"));
        assert!(md.contains("| Original | 0.500 ± 0.010 |"));
        assert!(md.contains("| Uniform | 0.400 ± 0.010 |"));
        assert!(md.contains("| λ = 0.1 | 0.350 ± 0.010 |"));
        // Markdown structure: every data line has the same column count.
        let cols: Vec<usize> = md
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.matches('|').count())
            .collect();
        assert!(cols.windows(2).all(|w| w[0] == w[1]), "{md}");
    }

    #[test]
    fn acquisition_table_lists_slices() {
        let mut row = fake_row(Strategy::Uniform, 0.4);
        let md = acquisition_markdown("Table 3", &["s0", "s1"], &[100, 100], &[("Uniform", &row)]);
        assert!(md.contains("| s0 | s1 |"));
        assert!(md.contains("| Original | 100 | 100 |"));
        assert!(md.contains("| Uniform | 10 | 20 |"));
        // Means of two trials end in .5; they round half away from zero.
        row.acquired_mean = vec![12.5, 13.5];
        let md = acquisition_markdown("Table 5", &["s0", "s1"], &[100, 100], &[("λ = 1", &row)]);
        assert!(md.contains("| λ = 1 | 13 | 14 |"), "{md}");
    }

    #[test]
    fn csv_has_header_plus_one_line_per_method() {
        let (uni, one) = (
            fake_row(Strategy::Uniform, 0.4),
            fake_row(Strategy::OneShot, 0.3),
        );
        let csv = methods_csv(&[("Uniform", &uni), ("One-shot", &one)]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("method,loss_mean"));
        assert!(csv.contains("One-shot,0.3,"));
    }
}
