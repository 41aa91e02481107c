//! Matrix Market (`.mtx`) coordinate-format IO.
//!
//! Supports the subset the paper's datasets use: `matrix coordinate`
//! with `real`, `integer` or `pattern` fields and `general` or
//! `symmetric` symmetry. Symmetric inputs are expanded to both
//! triangles on read, matching how graph frameworks consume SuiteSparse
//! files.

use crate::{CooMatrix, Idx, Result, SparseError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a Matrix Market coordinate file from any reader.
///
/// The reader can be passed as `&mut r` thanks to the blanket
/// `Read for &mut R` impl.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] for malformed content (including a
/// declared dimension or an entry index that does not fit [`Idx`], and
/// an entry count that differs from the declared one),
/// [`SparseError::Io`] for IO failures, and index errors if entries
/// exceed the declared shape.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), sparse::SparseError> {
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n";
/// let m = sparse::io::read_matrix_market(text.as_bytes())?;
/// assert_eq!(m.nnz(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    let header = loop {
        match lines.next() {
            Some(line) => {
                line_no += 1;
                let line = line?;
                if line_no == 1 {
                    break line;
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: line_no,
                    message: "empty file".to_string(),
                })
            }
        }
    };
    let header_fields: Vec<&str> = header.split_whitespace().collect();
    if header_fields.len() < 5
        || !header_fields[0].eq_ignore_ascii_case("%%MatrixMarket")
        || !header_fields[1].eq_ignore_ascii_case("matrix")
        || !header_fields[2].eq_ignore_ascii_case("coordinate")
    {
        return Err(SparseError::Parse {
            line: 1,
            message: format!("unsupported header: {header:?}"),
        });
    }
    let field = header_fields[3].to_ascii_lowercase();
    let pattern = match field.as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: 1,
                message: format!("unsupported field type {other:?}"),
            })
        }
    };
    let symmetry = header_fields[4].to_ascii_lowercase();
    let symmetric = match symmetry.as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(SparseError::Parse {
                line: 1,
                message: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Size line: first non-comment, non-blank line.
    let (rows, cols, nnz) = loop {
        let line = match lines.next() {
            Some(line) => {
                line_no += 1;
                line?
            }
            None => {
                return Err(SparseError::Parse {
                    line: line_no,
                    message: "missing size line".to_string(),
                })
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("size line must have 3 fields, got {}", parts.len()),
            });
        }
        let parse = |s: &str| -> Result<usize> {
            s.parse().map_err(|_| SparseError::Parse {
                line: line_no,
                message: format!("invalid integer {s:?}"),
            })
        };
        break (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
    };
    for (what, dim) in [("row", rows), ("column", cols)] {
        if Idx::try_from(dim).is_err() {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!(
                    "{what} count {dim} exceeds the index range (max {})",
                    Idx::MAX
                ),
            });
        }
    }

    // Not pre-sized from the declared count: the size line is untrusted,
    // and a mismatch is reported once the entries have been counted.
    let mut triplets: Vec<(Idx, Idx, f32)> = Vec::new();
    let mut seen = 0usize;
    for line in lines {
        line_no += 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        let want = if pattern { 2 } else { 3 };
        if parts.len() < want {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("entry line must have {want} fields, got {}", parts.len()),
            });
        }
        let r: usize = parts[0].parse().map_err(|_| SparseError::Parse {
            line: line_no,
            message: format!("invalid row index {:?}", parts[0]),
        })?;
        let c: usize = parts[1].parse().map_err(|_| SparseError::Parse {
            line: line_no,
            message: format!("invalid column index {:?}", parts[1]),
        })?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: line_no,
                message: "matrix market indices are 1-based".to_string(),
            });
        }
        let v: f32 = if pattern {
            1.0
        } else {
            parts[2].parse().map_err(|_| SparseError::Parse {
                line: line_no,
                message: format!("invalid value {:?}", parts[2]),
            })?
        };
        let to_idx = |i: usize, what: &str| -> Result<Idx> {
            Idx::try_from(i - 1).map_err(|_| SparseError::Parse {
                line: line_no,
                message: format!("{what} index {i} exceeds the index range"),
            })
        };
        let (r, c) = (to_idx(r, "row")?, to_idx(c, "column")?);
        triplets.push((r, c, v));
        if symmetric && r != c {
            triplets.push((c, r, v));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: line_no,
            message: format!("size line declared {nnz} entries but file has {seen}"),
        });
    }
    CooMatrix::from_triplets(rows, cols, triplets)
}

/// Reads a Matrix Market file from a path.
///
/// # Errors
///
/// See [`read_matrix_market`].
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CooMatrix> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
///
/// The writer can be passed as `&mut w`.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on write failure.
pub fn write_matrix_market<W: Write>(matrix: &CooMatrix, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", matrix.rows(), matrix.cols(), matrix.nnz())?;
    for (r, c, v) in matrix.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = crate::generate::uniform(20, 30, 80, 5).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.rows(), 20);
        assert_eq!(back.cols(), 30);
        assert_eq!(back.nnz(), 80);
        for (a, b) in m.iter().zip(back.iter()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert!((a.2 - b.2).abs() < 1e-5);
        }
    }

    #[test]
    fn pattern_matrices_get_unit_weights() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n% comment\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 2);
        assert!(m.iter().all(|(_, _, v)| v == 1.0));
    }

    #[test]
    fn symmetric_is_expanded() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        // (1,0) and (0,1) plus the diagonal (2,2).
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 3\n";
        match read_matrix_market(text.as_bytes()) {
            Err(SparseError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_count_detected() {
        // A huge declared count must be reported, not used to size an
        // allocation.
        for count in ["2", "99999999999999999"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 {count}\n1 1 1.0\n");
            match read_matrix_market(text.as_bytes()) {
                Err(SparseError::Parse { line, message }) => {
                    assert_eq!(line, 3);
                    assert!(message.contains("declared"), "{message}");
                }
                other => panic!("{count}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn indices_and_dimensions_beyond_idx_rejected() {
        // Row 4294967297 would wrap to row 0 if cast to u32.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n4294967297 1 1.0\n";
        match read_matrix_market(text.as_bytes()) {
            Err(SparseError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        for size in ["4294967296 2 0", "2 4294967296 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            match read_matrix_market(text.as_bytes()) {
                Err(SparseError::Parse { line, .. }) => assert_eq!(line, 2),
                other => panic!("{size}: expected parse error, got {other:?}"),
            }
        }
        // The largest representable shape is still accepted.
        let text =
            "%%MatrixMarket matrix coordinate real general\n4294967295 2 1\n4294967295 2 1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.rows(), Idx::MAX as usize);
        assert_eq!(m.iter().next(), Some((Idx::MAX - 1, 1, 1.0)));
    }

    #[test]
    fn zero_based_indices_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn unsupported_formats_rejected() {
        for text in [
            "%%MatrixMarket matrix array real general\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
            "not a header\n",
        ] {
            assert!(read_matrix_market(text.as_bytes()).is_err(), "{text:?}");
        }
    }
}

/// Reads a SNAP-style edge list: one `src dst [weight]` pair per line,
/// `#`-prefixed comment lines ignored, vertices 0-based. This is the
/// distribution format of the paper's SNAP datasets (livejournal,
/// pokec, youtube, twitter).
///
/// The vertex count is `max(vertex id) + 1` unless `min_vertices`
/// demands more; missing weights default to 1.0.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] for malformed lines (including a
/// vertex id whose vertex count, id + 1, does not fit [`Idx`]) and
/// [`SparseError::Io`] for IO failures.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), sparse::SparseError> {
/// let text = "# comment\n0 1\n1 2 0.5\n";
/// let g = sparse::io::read_edge_list(text.as_bytes(), 0)?;
/// assert_eq!(g.rows(), 3);
/// assert_eq!(g.nnz(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R, min_vertices: usize) -> Result<CooMatrix> {
    let mut triplets: Vec<(Idx, Idx, f32)> = Vec::new();
    let mut max_v: Idx = 0;
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_v = |tok: Option<&str>| -> Result<Idx> {
            let v: usize = tok
                .ok_or(SparseError::Parse {
                    line: line_no,
                    message: "edge line needs `src dst [weight]`".to_string(),
                })?
                .parse()
                .map_err(|_| SparseError::Parse {
                    line: line_no,
                    message: "invalid vertex id".to_string(),
                })?;
            // The vertex count (max id + 1) must fit `Idx` as well.
            match Idx::try_from(v) {
                Ok(v) if v < Idx::MAX => Ok(v),
                _ => Err(SparseError::Parse {
                    line: line_no,
                    message: format!(
                        "vertex id {v} exceeds the index range (max {})",
                        Idx::MAX - 1
                    ),
                }),
            }
        };
        let src = parse_v(parts.next())?;
        let dst = parse_v(parts.next())?;
        let weight: f32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| SparseError::Parse {
                line: line_no,
                message: format!("invalid weight {tok:?}"),
            })?,
            None => 1.0,
        };
        max_v = max_v.max(src).max(dst);
        triplets.push((src, dst, weight));
    }
    let n = if triplets.is_empty() {
        min_vertices
    } else {
        (max_v as usize + 1).max(min_vertices)
    };
    CooMatrix::from_triplets(n, n, triplets)
}

/// Reads a SNAP-style edge list from a path; see [`read_edge_list`].
///
/// # Errors
///
/// See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, min_vertices: usize) -> Result<CooMatrix> {
    read_edge_list(std::fs::File::open(path)?, min_vertices)
}

#[cfg(test)]
mod edge_list_tests {
    use super::*;

    #[test]
    fn basic_edges_with_comments() {
        let text = "# snap header\n% other comment\n0 3\n3 1 2.5\n\n1 0\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.rows(), 4);
        assert_eq!(g.nnz(), 3);
        let w: Vec<f32> = g.iter().map(|(_, _, v)| v).collect();
        assert!(w.contains(&2.5));
        assert_eq!(w.iter().filter(|v| **v == 1.0).count(), 2);
    }

    #[test]
    fn min_vertices_pads_dimension() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.rows(), 10);
    }

    #[test]
    fn duplicate_edges_combine() {
        let g = read_edge_list("0 1 1.0\n0 1 2.0\n".as_bytes(), 0).unwrap();
        assert_eq!(g.nnz(), 1);
        assert_eq!(g.entries()[0].val, 3.0);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        match read_edge_list("0 1\nbroken\n".as_bytes(), 0) {
            Err(SparseError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(read_edge_list("0\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("0 1 notaweight\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn vertex_ids_beyond_idx_rejected() {
        // 4294967296 would wrap to vertex 0 if cast to u32.
        for text in ["4294967296 1\n", "0 4294967296\n", "4294967295 0\n"] {
            match read_edge_list(text.as_bytes(), 0) {
                Err(SparseError::Parse { line, .. }) => assert_eq!(line, 1),
                other => panic!("{text:?}: expected parse error, got {other:?}"),
            }
        }
        let g = read_edge_list("4294967294 0\n".as_bytes(), 0).unwrap();
        assert_eq!(g.rows(), Idx::MAX as usize);
    }

    #[test]
    fn empty_input_gives_empty_matrix() {
        let g = read_edge_list("# nothing\n".as_bytes(), 0).unwrap();
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.rows(), 0);
    }

    #[test]
    fn file_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir();
        let path = dir.join("cosparse_edge_list_test.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let g = read_edge_list_file(&path, 0).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.rows(), 3);
    }
}
