//! CSV-style persistence for example sets.
//!
//! Slice Tuner's crowdsourcing pipeline stores acquired batches between
//! collection rounds (the paper used S3 + manual post-processing); this
//! module provides the equivalent text format without new dependencies
//! (the server stores uploads in it). Format: one example per line,
//! `label,slice,f0,f1,...` with full-precision floats.

use crate::example::{Example, SliceId};

/// Errors from [`read_examples`].
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A line had fewer than the two required columns.
    TooFewColumns {
        /// 1-based line number.
        line: usize,
    },
    /// Label or slice id failed to parse as an unsigned integer.
    BadIndex {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A feature failed to parse as a float.
    BadFloat {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// Rows disagree on feature dimensionality.
    InconsistentDim {
        /// 1-based line number.
        line: usize,
        /// Dimensionality of the first row.
        expected: usize,
        /// Dimensionality found on this row.
        found: usize,
    },
    /// A feature parsed but is not a finite number (NaN or ±Inf). Rejected
    /// at ingestion: one non-finite feature would poison every dot product
    /// downstream and surface as an inexplicable NaN loss rounds later.
    NonFiniteFeature {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A slice id names a slice the target dataset does not have
    /// (bounds-checked readers only).
    SliceOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The out-of-range slice id.
        slice: usize,
        /// Number of slices in the target dataset.
        num_slices: usize,
    },
    /// A slice received no examples at all (covering readers only):
    /// datasets built from such a batch would carry empty slices whose
    /// evaluations degenerate to NaN.
    EmptySlice {
        /// The unpopulated slice id.
        slice: usize,
        /// Number of slices the batch was required to cover.
        num_slices: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::TooFewColumns { line } => {
                write!(f, "line {line}: need at least label and slice columns")
            }
            CsvError::BadIndex { line, token } => {
                write!(f, "line {line}: cannot parse index {token:?}")
            }
            CsvError::BadFloat { line, token } => {
                write!(f, "line {line}: cannot parse float {token:?}")
            }
            CsvError::InconsistentDim {
                line,
                expected,
                found,
            } => {
                write!(f, "line {line}: {found} features, expected {expected}")
            }
            CsvError::NonFiniteFeature { line, token } => {
                write!(f, "line {line}: non-finite feature {token:?}")
            }
            CsvError::SliceOutOfRange {
                line,
                slice,
                num_slices,
            } => {
                write!(
                    f,
                    "line {line}: slice {slice} out of range (dataset has {num_slices} slices)"
                )
            }
            CsvError::EmptySlice { slice, num_slices } => {
                write!(
                    f,
                    "slice {slice} has no examples (batch must cover all {num_slices} slices)"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serializes examples to the CSV format. Floats use the shortest
/// round-trippable decimal representation Rust produces by default.
pub fn write_examples(examples: &[Example]) -> String {
    let mut out = String::new();
    for e in examples {
        out.push_str(&format!("{},{}", e.label, e.slice.index()));
        for v in &e.features {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    out
}

/// Parses the CSV format back into examples. Blank lines are skipped.
///
/// # Errors
/// Returns the first [`CsvError`] encountered.
pub fn read_examples(text: &str) -> Result<Vec<Example>, CsvError> {
    let mut out = Vec::new();
    let mut dim: Option<usize> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut parts = raw.split(',');
        let label_tok = parts.next().unwrap_or("");
        let slice_tok = parts.next().ok_or(CsvError::TooFewColumns { line })?;
        let label: usize = label_tok.trim().parse().map_err(|_| CsvError::BadIndex {
            line,
            token: label_tok.to_string(),
        })?;
        let slice: usize = slice_tok.trim().parse().map_err(|_| CsvError::BadIndex {
            line,
            token: slice_tok.to_string(),
        })?;
        let features: Result<Vec<f64>, CsvError> = parts
            .map(|t| {
                let v = t.trim().parse::<f64>().map_err(|_| CsvError::BadFloat {
                    line,
                    token: t.to_string(),
                })?;
                if !v.is_finite() {
                    return Err(CsvError::NonFiniteFeature {
                        line,
                        token: t.to_string(),
                    });
                }
                Ok(v)
            })
            .collect();
        let features = features?;
        match dim {
            None => dim = Some(features.len()),
            Some(d) if d != features.len() => {
                return Err(CsvError::InconsistentDim {
                    line,
                    expected: d,
                    found: features.len(),
                })
            }
            _ => {}
        }
        out.push(Example::new(features, label, SliceId(slice)));
    }
    Ok(out)
}

/// [`read_examples`] with slice ids bounds-checked against `num_slices` —
/// the ingestion boundary for examples headed into a dataset
/// ([`SlicedDataset::absorb`](crate::SlicedDataset::absorb) would otherwise
/// panic on an out-of-range id that came from user-supplied CSV).
///
/// # Errors
/// Returns the first [`CsvError`] encountered, including
/// [`CsvError::SliceOutOfRange`] with the offending line.
pub fn read_examples_bounded(text: &str, num_slices: usize) -> Result<Vec<Example>, CsvError> {
    let examples = read_examples(text)?;
    // Line numbers are recoverable because read_examples preserves input
    // order and skips only blank lines.
    let mut line = 0;
    let mut nonblank = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    for e in &examples {
        line = nonblank.next().map(|(i, _)| i + 1).unwrap_or(line + 1);
        if e.slice.index() >= num_slices {
            return Err(CsvError::SliceOutOfRange {
                line,
                slice: e.slice.index(),
                num_slices,
            });
        }
    }
    Ok(examples)
}

/// [`read_examples_bounded`] additionally requiring every one of the
/// `num_slices` slices to be populated — the ingestion boundary for a
/// *whole dataset* (as opposed to an acquisition batch, which legitimately
/// touches a subset of slices).
///
/// # Errors
/// Returns the first [`CsvError`] encountered, including
/// [`CsvError::EmptySlice`] for the lowest unpopulated slice id.
pub fn read_examples_covering(text: &str, num_slices: usize) -> Result<Vec<Example>, CsvError> {
    let examples = read_examples_bounded(text, num_slices)?;
    let mut seen = vec![false; num_slices];
    for e in &examples {
        seen[e.slice.index()] = true;
    }
    if let Some(slice) = seen.iter().position(|&s| !s) {
        return Err(CsvError::EmptySlice { slice, num_slices });
    }
    Ok(examples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Example> {
        vec![
            Example::new(vec![1.5, -2.25, 0.1], 0, SliceId(0)),
            Example::new(vec![0.0, 1e-12, 3.0e8], 4, SliceId(2)),
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ex = sample();
        let back = read_examples(&write_examples(&ex)).unwrap();
        assert_eq!(ex, back);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", write_examples(&sample()));
        assert_eq!(read_examples(&text).unwrap().len(), 2);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(read_examples("").unwrap(), vec![]);
        assert_eq!(write_examples(&[]), "");
    }

    #[test]
    fn detects_missing_slice_column() {
        assert_eq!(
            read_examples("3\n"),
            Err(CsvError::TooFewColumns { line: 1 })
        );
    }

    #[test]
    fn detects_bad_label() {
        assert!(matches!(
            read_examples("x,0,1.0\n"),
            Err(CsvError::BadIndex { line: 1, .. })
        ));
    }

    #[test]
    fn detects_bad_float_with_line_number() {
        let text = "0,0,1.0\n1,1,oops\n";
        assert!(matches!(
            read_examples(text),
            Err(CsvError::BadFloat { line: 2, .. })
        ));
    }

    #[test]
    fn detects_inconsistent_dimensions() {
        let text = "0,0,1.0,2.0\n1,1,3.0\n";
        assert_eq!(
            read_examples(text),
            Err(CsvError::InconsistentDim {
                line: 2,
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn bounded_reader_accepts_in_range_slices() {
        let ex = sample();
        let back = read_examples_bounded(&write_examples(&ex), 3).unwrap();
        assert_eq!(back, ex);
    }

    #[test]
    fn bounded_reader_rejects_out_of_range_slice_with_line() {
        // sample()'s second example names slice 2; a 2-slice dataset must
        // reject it at parse time instead of panicking later in absorb.
        let text = format!("\n{}", write_examples(&sample()));
        assert_eq!(
            read_examples_bounded(&text, 2),
            Err(CsvError::SliceOutOfRange {
                line: 3,
                slice: 2,
                num_slices: 2
            })
        );
    }

    #[test]
    fn zero_feature_examples_round_trip() {
        let ex = vec![Example::new(vec![], 1, SliceId(3))];
        assert_eq!(read_examples(&write_examples(&ex)).unwrap(), ex);
    }

    #[test]
    fn rejects_non_finite_features_with_line_and_token() {
        for token in ["NaN", "inf", "-inf", "Infinity"] {
            let text = format!("0,0,1.0\n1,1,{token}\n");
            assert_eq!(
                read_examples(&text),
                Err(CsvError::NonFiniteFeature {
                    line: 2,
                    token: token.to_string()
                }),
                "token {token:?} must be rejected"
            );
        }
        // Finite parses stay accepted, including exotic-but-finite forms.
        assert!(read_examples("0,0,1e308\n").is_ok());
    }

    #[test]
    fn truncated_rows_are_typed_errors_not_panics() {
        // A row chopped mid-write (crash during save) in every position.
        for truncated in ["0", "0,", "0,0,1.0\n1", "0,0,1.0\n1,1,2.0e"] {
            let err = read_examples(truncated);
            assert!(err.is_err(), "{truncated:?} must fail");
        }
        // "0," parses as slice token "" -> BadIndex, not TooFewColumns.
        assert!(matches!(
            read_examples("0,"),
            Err(CsvError::BadIndex { line: 1, .. })
        ));
    }

    #[test]
    fn covering_reader_rejects_empty_slices() {
        let ex = sample(); // populates slices 0 and 2 only
        let text = write_examples(&ex);
        assert_eq!(
            read_examples_covering(&text, 3),
            Err(CsvError::EmptySlice {
                slice: 1,
                num_slices: 3
            })
        );
        // Whole-file emptiness is the degenerate case of the same error.
        assert_eq!(
            read_examples_covering("", 2),
            Err(CsvError::EmptySlice {
                slice: 0,
                num_slices: 2
            })
        );
        // A batch covering every slice passes through unchanged.
        let full = vec![
            Example::new(vec![1.0], 0, SliceId(0)),
            Example::new(vec![2.0], 1, SliceId(1)),
        ];
        assert_eq!(
            read_examples_covering(&write_examples(&full), 2).unwrap(),
            full
        );
    }
}
