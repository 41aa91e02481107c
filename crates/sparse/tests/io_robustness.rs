//! Robustness of the two text readers on hostile input. Valid Matrix
//! Market and edge-list texts are mutated — truncated, token-spliced,
//! given huge and negative numbers, fields dropped or added, lines
//! deleted, duplicated or swapped — and both readers must return `Ok`
//! or `Err`: never panic, and never abort on an allocation sized from
//! the input. An `Ok` matrix must be well formed (shape within [`Idx`],
//! every entry inside the shape).

use proptest::prelude::*;
use sparse::io::{read_edge_list, read_matrix_market};
use sparse::{CooMatrix, Idx};

/// Numbers spliced into the texts: boundary and overflowing integers,
/// negative and signed numbers, float corner cases.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "+1",
    "-4294967296",
    "4294967294",
    "4294967295",
    "4294967296",
    "4294967297",
    "99999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "1e40",
    "-1e40",
    "nan",
    "inf",
    "-inf",
    "0.5",
    "1.5e-45",
];

/// Non-numeric tokens spliced into the texts: header keywords, comment
/// markers and junk.
const WORDS: &[&str] = &[
    "%",
    "#",
    "%%MatrixMarket",
    "matrix",
    "coordinate",
    "pattern",
    "symmetric",
    "x",
    "",
    "\u{e9}",
];

/// A text as lines of whitespace-separated tokens.
type Doc = Vec<Vec<String>>;

/// One mutation: `(kind, position selector, payload selector)`.
type Mutation = (usize, usize, usize);

const MUTATION_KINDS: usize = 9;

/// Splice token `i` of the combined number + word pool.
fn token(i: usize) -> String {
    let i = i % (NUMBERS.len() + WORDS.len());
    NUMBERS
        .get(i)
        .unwrap_or_else(|| &WORDS[i - NUMBERS.len()])
        .to_string()
}

fn doc_of(text: &str) -> Doc {
    text.lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

fn render(doc: &Doc, trailing_newline: bool) -> String {
    let mut s = doc
        .iter()
        .map(|l| l.join(" "))
        .collect::<Vec<_>>()
        .join("\n");
    if trailing_newline {
        s.push('\n');
    }
    s
}

/// The `(line, token)` coordinates of every token, in text order.
fn token_sites(doc: &Doc) -> Vec<(usize, usize)> {
    doc.iter()
        .enumerate()
        .flat_map(|(l, toks)| (0..toks.len()).map(move |t| (l, t)))
        .collect()
}

fn mutate(doc: &mut Doc, (kind, at, payload): Mutation) {
    let spliced = token(payload);
    let sites = token_sites(doc);
    let site = (!sites.is_empty()).then(|| sites[at % sites.len()]);
    let line = (!doc.is_empty()).then(|| at % doc.len());
    match kind {
        // Truncation: drop everything after a token, cutting that
        // token in half as a byte-level cut would.
        0 => {
            if let Some((l, t)) = site {
                doc.truncate(l + 1);
                doc[l].truncate(t + 1);
                let tok = &mut doc[l][t];
                let mut cut = tok.len() / 2;
                while !tok.is_char_boundary(cut) {
                    cut -= 1;
                }
                tok.truncate(cut);
            }
        }
        // Splice: replace a token.
        1 => {
            if let Some((l, t)) = site {
                doc[l][t] = spliced;
            }
        }
        // Extra field: insert a token after another.
        2 => match site {
            Some((l, t)) => doc[l].insert(t + 1, spliced),
            None => doc.push(vec![spliced]),
        },
        // Missing field: delete a token.
        3 => {
            if let Some((l, t)) = site {
                doc[l].remove(t);
            }
        }
        4 => {
            if let Some(l) = line {
                doc.remove(l);
            }
        }
        5 => {
            if let Some(l) = line {
                let copy = doc[l].clone();
                doc.insert(l, copy);
            }
        }
        // A whole line of junk with a wrong field count.
        6 => {
            if let Some(l) = line {
                doc[l] = (0..payload % 5)
                    .map(|i| token(payload / 5 + i * 7))
                    .collect();
            }
        }
        // A number spliced into one of the first four lines (header,
        // comment, size line, first entry: where the readers size and
        // shape their output) or, for odd `at`, into any line.
        7 => {
            if !doc.is_empty() {
                let lines = if at % 2 == 0 {
                    doc.len().min(4)
                } else {
                    doc.len()
                };
                let l = (at / 2) % lines;
                if !doc[l].is_empty() {
                    let t = payload % doc[l].len();
                    doc[l][t] = NUMBERS[(payload / 7) % NUMBERS.len()].to_string();
                }
            }
        }
        _ => {
            if let Some(l) = line {
                let other = payload % doc.len();
                doc.swap(l, other);
            }
        }
    }
}

/// A valid Matrix Market text: shape, one of the four supported
/// field/symmetry headers, and entries (lower-triangle for symmetric).
fn arb_matrix_market() -> impl Strategy<Value = String> {
    (1usize..10, 1usize..10, 0usize..4).prop_flat_map(|(rows, cols, header)| {
        collection::vec((0..rows.max(cols), 0..rows.max(cols), -50i32..50), 0..16).prop_map(
            move |raw| {
                let (field, symmetric) = [
                    ("real", false),
                    ("integer", false),
                    ("pattern", false),
                    ("real", true),
                ][header];
                let cols = if symmetric { rows } else { cols };
                let mut entries: Vec<(usize, usize, i32)> = raw
                    .into_iter()
                    .map(|(r, c, v)| (r % rows, c % cols, v))
                    .map(|(r, c, v)| {
                        if symmetric {
                            (r.max(c), r.min(c), v)
                        } else {
                            (r, c, v)
                        }
                    })
                    .collect();
                entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
                entries.dedup_by_key(|e| (e.0, e.1));
                let sym = if symmetric { "symmetric" } else { "general" };
                let mut text =
                    format!("%%MatrixMarket matrix coordinate {field} {sym}\n% comment\n");
                text.push_str(&format!("{rows} {cols} {}\n", entries.len()));
                for (r, c, v) in entries {
                    match field {
                        "pattern" => text.push_str(&format!("{} {}\n", r + 1, c + 1)),
                        "integer" => text.push_str(&format!("{} {} {v}\n", r + 1, c + 1)),
                        _ => text.push_str(&format!("{} {} {}\n", r + 1, c + 1, v as f32 * 0.25)),
                    }
                }
                text
            },
        )
    })
}

/// A valid SNAP-style edge list with comments and optional weights.
fn arb_edge_list() -> impl Strategy<Value = String> {
    collection::vec((0usize..20, 0usize..20, 0usize..3), 0..16).prop_map(|edges| {
        let mut text = String::from("# snap header\n");
        for (src, dst, w) in edges {
            match w {
                0 => text.push_str(&format!("{src} {dst}\n")),
                1 => text.push_str(&format!("{src} {dst} {}\n", dst as f32 * 0.5)),
                _ => text.push_str(&format!("% note\n{src}\t{dst}\n")),
            }
        }
        text
    })
}

fn arb_mutations() -> impl Strategy<Value = (Vec<Mutation>, bool)> {
    (
        collection::vec((0..MUTATION_KINDS, 0usize..10_000, 0usize..1_000), 1..5),
        0usize..2,
    )
        .prop_map(|(muts, nl)| (muts, nl == 1))
}

fn mutated(text: &str, muts: &[Mutation], trailing_newline: bool) -> String {
    let mut doc = doc_of(text);
    for &m in muts {
        mutate(&mut doc, m);
    }
    render(&doc, trailing_newline)
}

/// An accepted matrix must be well formed.
fn check_well_formed(m: &CooMatrix) -> Result<(), TestCaseError> {
    prop_assert!(m.rows() <= Idx::MAX as usize, "rows {}", m.rows());
    prop_assert!(m.cols() <= Idx::MAX as usize, "cols {}", m.cols());
    for (r, c, _) in m.iter() {
        prop_assert!((r as usize) < m.rows() && (c as usize) < m.cols());
    }
    Ok(())
}

/// The data lines of an accepted text (comments and blanks skipped),
/// as their leading integer tokens.
fn data_lines(text: &str, comment: &[char]) -> Vec<Vec<usize>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with(comment))
        .map(|l| l.split_whitespace().map_while(|t| t.parse().ok()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The generators produce texts the readers accept, so the
    /// mutation properties below start from valid input.
    #[test]
    fn unmutated_texts_parse(mm in arb_matrix_market(), el in arb_edge_list()) {
        let m = read_matrix_market(mm.as_bytes());
        prop_assert!(m.is_ok(), "{mm:?}: {m:?}");
        let g = read_edge_list(el.as_bytes(), 0);
        prop_assert!(g.is_ok(), "{el:?}: {g:?}");
    }

    #[test]
    fn mutated_matrix_market_returns_ok_or_err(
        text in arb_matrix_market(),
        muts in arb_mutations(),
    ) {
        let input = mutated(&text, &muts.0, muts.1);
        if let Ok(m) = read_matrix_market(input.as_bytes()) {
            check_well_formed(&m)?;
            // Every accepted entry lies inside the declared shape as
            // written, not merely after a narrowing cast.
            let body = input.split_once('\n').map_or("", |(_, b)| b);
            let lines = data_lines(body, &['%']);
            prop_assert_eq!(&lines[0][..2], &[m.rows(), m.cols()][..]);
            for e in &lines[1..] {
                prop_assert!(e[0] <= m.rows() && e[1] <= m.cols(), "{e:?} in {input:?}");
            }
        }
    }

    #[test]
    fn mutated_edge_list_returns_ok_or_err(
        text in arb_edge_list(),
        muts in arb_mutations(),
        min_vertices in 0usize..4,
    ) {
        let input = mutated(&text, &muts.0, muts.1);
        if let Ok(g) = read_edge_list(input.as_bytes(), min_vertices) {
            check_well_formed(&g)?;
            // The vertex count follows from the ids as written.
            let max_id = data_lines(&input, &['#', '%']).iter().map(|l| l[0].max(l[1])).max();
            prop_assert_eq!(g.rows(), max_id.map_or(min_vertices, |v| (v + 1).max(min_vertices)));
            prop_assert_eq!(g.rows(), g.cols());
        }
    }
}

/// The mutator is not vacuous: over a fixed run of cases each reader
/// both accepts some mutated texts and rejects others.
#[test]
fn mutations_reach_both_outcomes() {
    let mut rng = TestRng::deterministic("io_robustness::mutations_reach_both_outcomes");
    let (mm, el, muts) = (arb_matrix_market(), arb_edge_list(), arb_mutations());
    let mut outcomes = [[0usize; 2]; 2];
    for _ in 0..256 {
        let (m, nl) = muts.generate(&mut rng);
        let text = mutated(&mm.generate(&mut rng), &m, nl);
        outcomes[0][read_matrix_market(text.as_bytes()).is_ok() as usize] += 1;
        let (m, nl) = muts.generate(&mut rng);
        let text = mutated(&el.generate(&mut rng), &m, nl);
        outcomes[1][read_edge_list(text.as_bytes(), 0).is_ok() as usize] += 1;
    }
    for (reader, [err, ok]) in ["matrix market", "edge list"].iter().zip(outcomes) {
        assert!(err > 0 && ok > 0, "{reader}: {err} rejected, {ok} accepted");
    }
}
