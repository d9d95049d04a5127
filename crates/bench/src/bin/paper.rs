//! The paper's strategy-comparison experiments as data: each is groups of
//! repeated-trial cells, the tables they print through `slice_tuner::report`,
//! and the comparisons the paper's sentence about them states, measured
//! trial by trial (the cells of one group share their trial datasets).
//!
//! `paper <experiment>...` runs the named experiments in order, and `paper
//! all` runs every one; `ST_TRIALS`, `ST_QUICK` and `ST_JOBS` scale them
//! (see `st_bench`).

use slice_tuner::{acquisition_markdown, methods_markdown, BanditParams, CurveCache, PoolSource};
use slice_tuner::{RunResult, Setting::*, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_bench::{quick, run_cell, trials, FamilySetup};
use st_curve::EstimationMode::{Amortized, Exhaustive};
use st_data::{decaying_sizes, SlicedDataset};
use std::{sync::Arc, time::Instant};

/// A per-trial value and its name.
type Metric = (&'static str, fn(&RunResult) -> f64);
const LOSS: Metric = ("loss", |r| r.report.overall_loss);
const AVG_EER: Metric = ("avg EER", |r| r.report.avg_eer);
const MAX_EER: Metric = ("max EER", |r| r.report.max_eer);
const TRAININGS: Metric = ("trainings", |r| r.trainings as f64);
/// The share of the acquired examples that went to the slice whose loss
/// was highest before acquisition.
const WORST_SHARE: Metric = ("worst-slice share", |r| {
    let l = &r.original.per_slice_losses;
    let worst = (0..l.len()).max_by(|&i, &j| l[i].total_cmp(&l[j]));
    let bought = r.acquired.iter().sum::<usize>().max(1);
    r.acquired[worst.expect("a family has slices")] as f64 / bought as f64
});

/// The relation a comparison expects between two paired values.
type Rel = (&'static str, fn(f64, f64) -> bool);
const LT: Rel = ("<", |a, b| a < b);
const LE: Rel = ("≤", |a, b| a <= b);
const GT: Rel = (">", |a, b| a > b);
const EQ: Rel = ("=", |a, b| a == b);

/// Cells on one family that share initial sizes and a config seed, so
/// trial `t` of every cell starts from the same dataset and a comparison
/// pairs two cells trial by trial.
struct Group {
    name: String,
    setup: FamilySetup,
    sizes: Vec<usize>,
    /// `(row label, strategy, budget, config)`.
    cells: Vec<(String, Strategy, f64, TunerConfig)>,
    /// The methods table's name, and the acquisition table's if it prints.
    tables: (&'static str, Option<&'static str>),
    /// `(metric, a, relation, b)`: cell `a` against cell `b`.
    compare: Vec<(Metric, usize, Rel, usize)>,
    /// Print each cell's wall clock per trial.
    timed: bool,
}

impl Group {
    fn new(name: String, setup: &FamilySetup, sizes: Vec<usize>, table: &'static str) -> Self {
        Group {
            name,
            setup: setup.clone(),
            sizes,
            cells: vec![],
            tables: (table, None),
            compare: vec![],
            timed: false,
        }
    }

    /// Adds one cell per strategy, labelled with its name.
    fn with(mut self, strategies: &[Strategy], budget: f64, cfg: &TunerConfig) -> Self {
        for &s in strategies {
            self.cells.push((s.name().into(), s, budget, cfg.clone()));
        }
        self
    }

    /// Uniform, Water filling and Moderate, with "Moderate ≤ both
    /// baselines" compared on loss and avg EER.
    fn baselines(self, budget: f64, config: &TunerConfig) -> Self {
        let all = [Strategy::Uniform, Strategy::WaterFilling, moderate()];
        let mut g = self.with(&all, budget, config);
        for m in [LOSS, AVG_EER] {
            g.compare.extend([(m, 2, LE, 0), (m, 2, LE, 1)]);
        }
        g
    }
}

fn moderate() -> Strategy {
    Strategy::Iterative(TSchedule::moderate())
}

/// The smoke-size value under `ST_QUICK=1`, else the full one.
fn sized<T>(smoke: T, full: T) -> T {
    if quick() {
        smoke
    } else {
        full
    }
}

/// One-shot and the three iterative schedules on every family, from the
/// family's `sizes`, with their acquisitions.
fn schedules(title: &str, tables: [&'static str; 2], seed: u64, sizes: Vec<Vec<usize>>) {
    let (aggressive, conservative) = (TSchedule::aggressive(), TSchedule::conservative());
    let iterative = [aggressive, TSchedule::moderate(), conservative].map(Strategy::Iterative);
    let all = [&[Strategy::OneShot], &iterative[..]].concat();
    let groups = FamilySetup::all().into_iter().zip(sizes).map(|(s, sizes)| {
        let budget = s.scaled_budget();
        let mut g = Group::new(format!("{} (B = {budget})", s.label), &s, sizes, tables[0]);
        g.tables.1 = Some(tables[1]);
        g.with(&all, budget, &s.config(seed))
    });
    run(title, trials(), groups.collect(), "");
}

fn table2() {
    let all = FamilySetup::all();
    let sizes = all.iter().map(FamilySetup::equal_sizes).collect();
    let title = "Tables 2 and 3: Slice Tuner methods comparison";
    schedules(title, ["Table 2", "Table 3"], 1, sizes);
}

fn table10() {
    // Appendix C's bases (the first slice's size), in `FamilySetup::all`'s
    // order: Fashion-MNIST, Mixed-MNIST, UTKFace, AdultCensus.
    let bases = FamilySetup::all().into_iter().zip([400, 600, 400, 150]);
    let sizes = bases.map(|(s, base)| decaying_sizes(s.family.num_slices(), base));
    let title = "Tables 10 and 11: methods with decaying initial slice sizes";
    schedules(title, ["Table 10", "Table 11"], 10, sizes.collect());
}

fn table4() {
    let mut groups = vec![];
    for s in FamilySetup::all() {
        let budget = s.scaled_budget();
        let name = format!("{} (B = {budget})", s.label);
        let mut g = Group::new(name, &s, s.equal_sizes(), "Table 4");
        g.tables.1 = (s.label == "Fashion-MNIST").then_some("Table 5");
        for l in [0.0, 0.1, 1.0, 10.0] {
            let (label, config) = (format!("λ = {l}"), s.config(2).with_lambda(l));
            g.cells.push((label, moderate(), budget, config));
        }
        g.compare = vec![(AVG_EER, 3, LT, 0), (MAX_EER, 3, LT, 0), (LOSS, 3, GT, 0)];
        g.compare.push((WORST_SHARE, 3, GT, 0));
        groups.push(g);
    }
    let expect = "Paper's expectation: higher λ lowers avg/max EER, raises loss, and \
                  concentrates acquisition on the high-loss slices";
    let title = "Tables 4 and 5: Moderate with varying λ";
    run(title, trials(), groups, expect);
}

fn table6() {
    let mut groups = vec![];
    for s in FamilySetup::all() {
        // Paper: B = 3K for image datasets, 300 for AdultCensus.
        let census = s.label == "AdultCensus";
        let budget = sized(0.25, 1.0) * if census { 300.0 } else { 3000.0 };
        for setting in [Basic, BadForUniform, BadForWaterFilling] {
            let name = format!("{} (B = {budget}), {}", s.label, setting.name());
            let sizes = setting.initial_sizes(&s.family, s.initial, 6);
            let g = Group::new(name, &s, sizes, "Table 6");
            let mut g = g.baselines(budget, &s.config(3).with_lambda(0.1));
            // The setting named after a baseline should hurt that one most.
            match setting {
                Basic => {}
                BadForUniform => g.compare.push((LOSS, 0, GT, 1)),
                BadForWaterFilling => g.compare.push((LOSS, 1, GT, 0)),
            }
            groups.push(g);
        }
    }
    let expect = "Paper's expectation: Mod ≤ both baselines everywhere; Uniform suffers most \
                  in 'Bad for Uniform'; Water filling suffers most in 'Bad for Water filling'";
    let title = "Table 6: Moderate vs baselines under three settings (λ = 0.1)";
    run(title, trials(), groups, expect);
}

fn table7() {
    // Slices of 30 give noisy curves (Figure 11); Slice Tuner needs only
    // their relative ordering.
    let s = FamilySetup::fashion();
    let ds = SlicedDataset::generate(&s.family, &[30; 10], s.validation, 55);
    let mut pool = PoolSource::new(s.family.clone(), 55);
    let curves = SliceTuner::new(ds, &mut pool, s.config(55)).estimate_curves(0);
    println!("Figure 11: noisy learning curves at slice size 30");
    for i in [4, 7] {
        let (name, c) = (s.family.slice_names()[i], &curves[i]);
        println!("  slice {name:<12} y = {:.3}x^(-{:.3})", c.b, c.a);
    }
    println!();
    let mut config = s.config(5);
    config.min_slice_size = 30;
    let name = format!("{} (init 30, B = 500)", s.label);
    let mut g = Group::new(name, &s, vec![30; 10], "Table 7").baselines(500.0, &config);
    g.compare.push((LOSS, 1, EQ, 0));
    let expect = "Paper's expectation: even with unreliable curves, Moderate ≤ both \
                  baselines; with equal initial sizes Uniform and Water filling coincide";
    let title = "Table 7: small slices with unreliable learning curves";
    run(title, trials(), vec![g], expect);
}

fn table8() {
    let s = FamilySetup::fashion();
    let runs = sized(vec![(100, 500.0)], vec![(200, 2000.0), (300, 3000.0)]);
    let groups = runs.into_iter().map(|(init, budget)| {
        let name = format!("{} (init {init}, B = {budget})", s.label);
        let mut g = Group::new(name, &s, vec![init; 10], "Table 8");
        for (label, mode) in [("Exhaustive", Exhaustive), ("Slice Tuner", Amortized)] {
            let config = s.config(8).with_mode(mode);
            g.cells.push((label.into(), moderate(), budget, config));
        }
        g.compare = vec![(TRAININGS, 1, LT, 0), (LOSS, 1, LE, 0), (AVG_EER, 1, LE, 0)];
        g.timed = true;
        g
    });
    let expect = "Paper's expectation: amortized is ~|S|x cheaper in trainings and ~11-12x \
                  faster in wall clock, with equal-or-better loss and unfairness";
    let title = "Table 8: exhaustive vs amortized curve generation (Moderate)";
    run(title, trials().min(3), groups.collect(), expect);
}

fn table9() {
    // Appendix B's ResNet-18 stand-in: a model too big for the data.
    let mut s = FamilySetup::fashion();
    s.spec = st_models::ModelSpec::deep();
    let budget = sized(750.0, 3000.0);
    let name = format!("{} (init 400, B = {budget}), {}", s.label, s.spec.repr());
    let g = Group::new(name, &s, vec![400; 10], "Table 9").baselines(budget, &s.config(9));
    let expect = "Paper's expectation: same ranking as Table 6's basic setting, higher \
                  absolute losses";
    let title = "Table 9: overparameterized model";
    run(title, trials(), vec![g], expect);
}

fn fig10() {
    let s = FamilySetup::mixed();
    let budgets = sized(vec![500.0, 1500.0], vec![1e3, 2e3, 3e3, 4e3, 5e3]);
    let name = format!("{} (λ = 1)", s.label);
    let mut g = Group::new(name, &s, s.equal_sizes(), "Figure 10");
    for strategy in [Strategy::Uniform, Strategy::WaterFilling, moderate()] {
        for &b in &budgets {
            let (label, config) = (format!("{}, B = {b}", strategy.name()), s.config(4));
            g.cells.push((label, strategy, b, config.with_lambda(1.0)));
        }
    }
    // Moderate's cell at each budget against each baseline's.
    let n = budgets.len();
    for (i, m) in (0..n).flat_map(|i| [(i, LOSS), (i, AVG_EER)]) {
        let ours = 2 * n + i;
        g.compare.extend([(m, ours, LT, i), (m, ours, LT, n + i)]);
    }
    let expect = "Paper's expectation: Moderate dominates both baselines at every budget; \
                  the unfairness gap is larger than the loss gap";
    run("Figure 10: budget sweep", trials(), vec![g], expect);
}

fn bandit_compare() {
    // Section 7 frames Slice Tuner as a bandit with rotting arms; a
    // model-free ε-greedy one gets the same budget.
    let s = FamilySetup::census();
    let (budget, config) = (sized(200.0, 500.0), s.config(12));
    let name = format!("{} (B = {budget})", s.label);
    let g = Group::new(name, &s, vec![40, 80, 120, 160], "Extension");
    let mut g = g.with(&[moderate()], budget, &config);
    for (i, epsilon) in [(1, 0.1), (2, 0.3)] {
        let bandit = Strategy::RottingBandit(BanditParams {
            batch: 50.0,
            epsilon,
        });
        let label = format!("Bandit ε={epsilon}");
        g.cells.push((label, bandit, budget, config.clone()));
        let cmp = [(LOSS, 0, LE, i), (AVG_EER, 0, LT, i), (TRAININGS, 0, LT, i)];
        g.compare.extend(cmp);
    }
    let expect = "Expected (this extension is not in the paper): comparable or better loss \
                  for Slice Tuner, clearly better unfairness, far fewer trainings per unit \
                  budget (the bandit has no fairness term and pays one full retraining per \
                  pull; Slice Tuner plans with learning curves)";
    let title = "Extension: Moderate vs rotting bandit";
    run(title, trials(), vec![g], expect);
}

/// Runs every cell, prints each group's tables, then `expect` (the
/// labelled sentence the comparisons query, unless empty) and one measured
/// line per comparison.
fn run(title: &str, trials: usize, groups: Vec<Group>, expect: &str) {
    println!("{title} ({trials} trials)\n");
    // One cache per experiment. Its keys hold the dataset fingerprint and
    // the estimator seed, so a hit is bit-identical to recomputing; it
    // counts only trainings actually performed, so a fresh one gives an
    // experiment the same Trainings column alone or after others.
    let cache = CurveCache::shared();
    let mut measured = vec![];
    for g in &groups {
        let (fam, val) = (&g.setup.family, g.setup.validation);
        let (mut rows, mut clock) = (vec![], vec![]);
        for (label, strategy, budget, config) in &g.cells {
            let config = config.clone().with_cache(Arc::clone(&cache));
            let start = Instant::now();
            let agg = run_cell(fam, &g.sizes, val, *budget, *strategy, &config, trials);
            rows.push(agg);
            let secs = start.elapsed().as_secs_f64() / trials as f64;
            clock.push(format!("{label} {secs:.1} s"));
        }
        let labelled: Vec<_> = g.cells.iter().map(|c| c.0.as_str()).zip(&rows).collect();
        let title = |table: &str| format!("{table} — {}", g.name);
        println!("{}", methods_markdown(&title(g.tables.0), &labelled));
        if let Some(table) = g.tables.1 {
            let (title, names) = (title(table), fam.slice_names());
            let md = acquisition_markdown(&title, &names, &g.sizes, &labelled);
            println!("{md}");
        }
        if g.timed {
            println!("Wall clock per trial: {}\n", clock.join(", "));
        }
        for &((metric, of), a, (symbol, holds), b) in &g.compare {
            let pairs = rows[a].trials.iter().zip(&rows[b].trials);
            let pairs: Vec<_> = pairs.map(|(x, y)| (of(x), of(y))).collect();
            let held = pairs.iter().filter(|(x, y)| holds(*x, *y)).count();
            let diff = pairs.iter().map(|(x, y)| x - y).sum::<f64>() / pairs.len() as f64;
            let (a, b, n) = (&g.cells[a].0, &g.cells[b].0, pairs.len());
            let line = format!("{}: {metric} {a} {symbol} {b} in {held}/{n} trials", g.name);
            measured.push(format!("  {line}, mean paired difference {diff:+.4}"));
        }
    }
    if !expect.is_empty() {
        println!("{expect}.");
        println!("Measured (k of N seed-paired trials hold; mean of first − second):");
        println!("{}", measured.join("\n"));
    }
}

const EXPERIMENTS: [(&str, fn()); 9] = [
    ("table2", table2),
    ("table4", table4),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("table9", table9),
    ("table10", table10),
    ("fig10", fig10),
    ("bandit_compare", bandit_compare),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |a: &String| EXPERIMENTS.iter().find(|(name, _)| name == a);
    let chosen: Option<Vec<_>> = match &args[..] {
        [all] if all == "all" => Some(EXPERIMENTS.iter().collect()),
        _ => args.iter().map(find).collect(),
    };
    let Some(chosen) = chosen.filter(|c| !c.is_empty()) else {
        let names = EXPERIMENTS.map(|(name, _)| name).join(" ");
        eprintln!("usage: paper <experiment>... | all\nexperiments: {names}");
        std::process::exit(2);
    };
    for (_, experiment) in chosen {
        experiment();
        println!();
    }
}
