//! CSV read/write for point data, with an optional trailing integer label
//! column — the format the original DP code and the UCI data sets use.

use crate::generators::LabeledDataset;
use dp_core::Dataset;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// IO errors.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A malformed row: `(line number, message)`.
    Parse(usize, String),
    /// Rows disagreed on column count.
    RaggedRows {
        /// 1-based line number of the offending row.
        line: usize,
        /// Columns expected (from the first row).
        expected: usize,
        /// Columns found.
        got: usize,
    },
    /// The file contained no data rows.
    Empty,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            IoError::RaggedRows {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} columns, got {got}")
            }
            IoError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses CSV text into a dataset; when `labeled`, the last column is an
/// integer ground-truth label. Blank lines and `#` comments are skipped.
pub fn parse_csv<R: Read>(reader: R, labeled: bool) -> Result<LabeledDataset, IoError> {
    let reader = BufReader::new(reader);
    let mut data: Option<Dataset> = None;
    let mut labels = Vec::new();
    let mut row = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        parse_row(line, lineno, &mut row)?;
        let (coords, label) = if labeled {
            if row.len() < 2 {
                return Err(IoError::Parse(
                    lineno,
                    "labeled row needs >= 2 columns".into(),
                ));
            }
            let l = *row.last().expect("non-empty row");
            if !is_label(l) {
                return Err(IoError::Parse(lineno, format!("bad label {l}")));
            }
            (&row[..row.len() - 1], l as u32)
        } else {
            (&row[..], 0)
        };
        let ds = data.get_or_insert_with(|| Dataset::new(coords.len()));
        if ds.dim() != coords.len() {
            return Err(IoError::RaggedRows {
                line: lineno,
                expected: ds.dim() + usize::from(labeled),
                got: row.len(),
            });
        }
        ds.push(coords);
        labels.push(label);
    }
    let data = data.ok_or(IoError::Empty)?;
    Ok(LabeledDataset { data, labels })
}

/// Parses one comma-separated row of numbers into `row`, replacing its
/// contents; errors name the 1-based `lineno`. Every entry point that
/// reads points from text parses its rows here.
#[inline]
pub fn parse_row(line: &str, lineno: usize, row: &mut Vec<f64>) -> Result<(), IoError> {
    row.clear();
    for (col, field) in line.split(',').enumerate() {
        let v: f64 = field
            .trim()
            .parse()
            .map_err(|e| IoError::Parse(lineno, format!("bad number {field:?}: {e}")))?;
        // Rust's parser accepts `nan` and `inf`; no distance is
        // defined over them.
        if !v.is_finite() {
            let msg = format!("non-finite value {v} in column {}", col + 1);
            return Err(IoError::Parse(lineno, msg));
        }
        row.push(v);
    }
    Ok(())
}

/// A label column value: a non-negative integer that fits a `u32`.
fn is_label(l: f64) -> bool {
    (0.0..=u32::MAX as f64).contains(&l) && l.fract() == 0.0
}

/// Reads a CSV file; see [`parse_csv`].
pub fn read_csv(path: impl AsRef<Path>, labeled: bool) -> Result<LabeledDataset, IoError> {
    parse_csv(std::fs::File::open(path)?, labeled)
}

/// Writes a dataset as CSV; when `labels` is given, appended as the last
/// column.
pub fn write_csv(
    path: impl AsRef<Path>,
    ds: &Dataset,
    labels: Option<&[u32]>,
) -> Result<(), IoError> {
    if let Some(l) = labels {
        assert_eq!(l.len(), ds.len(), "labels must cover every point");
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, p) in ds.iter() {
        let mut first = true;
        for x in p {
            if !first {
                write!(w, ",")?;
            }
            write!(w, "{x}")?;
            first = false;
        }
        if let Some(l) = labels {
            write!(w, ",{}", l[id as usize])?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_unlabeled() {
        let text = "1.0,2.0\n# comment\n\n3.5,-4.0\n";
        let ld = parse_csv(text.as_bytes(), false).unwrap();
        assert_eq!(ld.len(), 2);
        assert_eq!(ld.data.point(1), &[3.5, -4.0]);
    }

    #[test]
    fn parse_labeled() {
        let text = "1.0,2.0,0\n3.0,4.0,1\n";
        let ld = parse_csv(text.as_bytes(), true).unwrap();
        assert_eq!(ld.data.dim(), 2);
        assert_eq!(ld.labels, vec![0, 1]);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_csv("".as_bytes(), false),
            Err(IoError::Empty)
        ));
        assert!(matches!(
            parse_csv("1.0,abc\n".as_bytes(), false),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            parse_csv("1.0,2.0\n1.0\n".as_bytes(), false),
            Err(IoError::RaggedRows { line: 2, .. })
        ));
        assert!(matches!(
            parse_csv("1.0,2.0,0.5\n".as_bytes(), true),
            Err(IoError::Parse(1, _))
        ));
        for row in [
            "1.0,2.0\nnan,1.0\n",
            "1.0,2.0\n1.0,-inf\n",
            "1.0,2.0\n1.0,infinity\n",
        ] {
            let err = parse_csv(row.as_bytes(), false).unwrap_err();
            assert!(
                matches!(&err, IoError::Parse(2, m) if m.contains("column")),
                "{err}"
            );
        }
        assert!(matches!(
            parse_csv("1.0,2.0,4294967296\n".as_bytes(), true),
            Err(IoError::Parse(1, _))
        ));
        let top = parse_csv("1.0,4294967295\n".as_bytes(), true).unwrap();
        assert_eq!(top.labels, [u32::MAX]);
    }

    #[test]
    fn parse_row_names_the_line_and_column() {
        let mut row = vec![9.0];
        parse_row(" 1.5, -2 ", 3, &mut row).unwrap();
        assert_eq!(row, [1.5, -2.0]);
        for (line, want) in [
            ("1.0,NaN", "line 7: non-finite value NaN in column 2"),
            ("inf,1.0", "line 7: non-finite value inf in column 1"),
            ("1.0,2.0,-inf", "line 7: non-finite value -inf in column 3"),
        ] {
            assert_eq!(parse_row(line, 7, &mut row).unwrap_err().to_string(), want);
        }
        assert!(matches!(
            parse_row("1.0,x", 2, &mut row),
            Err(IoError::Parse(2, m)) if m.starts_with("bad number")
        ));
    }

    #[test]
    fn round_trip_via_tempfile() {
        let dir = std::env::temp_dir().join("lshddp-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        let ld = crate::generators::gaussian_mixture(3, 2, 10, 10.0, 0.5, 1);
        write_csv(&path, &ld.data, Some(&ld.labels)).unwrap();
        let back = read_csv(&path, true).unwrap();
        assert_eq!(back.labels, ld.labels);
        assert_eq!(back.data.dim(), 3);
        assert_eq!(back.len(), ld.len());
        for (a, b) in back.data.as_flat().iter().zip(ld.data.as_flat()) {
            assert!((a - b).abs() < 1e-12);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
