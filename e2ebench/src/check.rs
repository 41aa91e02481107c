//! Answer checks against the host reference implementations.

use graph::serve::QueryAnswer;

/// Largest absolute SSSP distance error accepted, as in the repository's
/// end-to-end tests.
const SSSP_TOL: f32 = 1e-4;
/// Largest absolute PageRank error accepted, as in the repository's
/// end-to-end tests.
const PR_TOL: f32 = 1e-5;

fn close(got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    // Equal infinities match; NaN matches nothing.
    let within = |a: f32, b: f32| a == b || (a - b).abs() < tol;
    match got.iter().zip(want).position(|(&a, &b)| !within(a, b)) {
        Some(v) => Err(format!("vertex {v}: {} vs {}", got[v], want[v])),
        None => Ok(()),
    }
}

/// Checks `got` against the reference answer `want`: BFS parents must
/// match exactly, SSSP distances and PageRank scores within the
/// tolerances above (unreached vertices must match as infinities).
pub fn check(got: &QueryAnswer, want: &QueryAnswer) -> Result<(), String> {
    match (got, want) {
        (QueryAnswer::Bfs(g), QueryAnswer::Bfs(w)) => {
            if g.len() != w.len() {
                return Err(format!("bfs: {} parents, want {}", g.len(), w.len()));
            }
            match g.iter().zip(w).position(|(a, b)| a != b) {
                Some(v) => Err(format!("bfs vertex {v}: parent {} vs {}", g[v], w[v])),
                None => Ok(()),
            }
        }
        (QueryAnswer::Sssp(g), QueryAnswer::Sssp(w)) => {
            close(g, w, SSSP_TOL).map_err(|e| format!("sssp {e}"))
        }
        (QueryAnswer::PageRank(g), QueryAnswer::PageRank(w)) => {
            close(g, w, PR_TOL).map_err(|e| format!("pagerank {e}"))
        }
        _ => Err("answer of the wrong kind".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_bfs_parent_is_flagged() {
        let want = QueryAnswer::Bfs(vec![0, 0, 1, u32::MAX]);
        assert_eq!(check(&want.clone(), &want), Ok(()));
        let bad = QueryAnswer::Bfs(vec![0, 0, 2, u32::MAX]);
        assert!(check(&bad, &want).unwrap_err().contains("vertex 2"));
        let short = QueryAnswer::Bfs(vec![0, 0, 1]);
        assert!(check(&short, &want).is_err());
    }

    #[test]
    fn sssp_accepts_rounding_but_not_corruption() {
        let want = QueryAnswer::Sssp(vec![0.0, 1.5, f32::INFINITY]);
        let rounded = QueryAnswer::Sssp(vec![0.0, 1.5 + 5e-5, f32::INFINITY]);
        assert_eq!(check(&rounded, &want), Ok(()));
        let bad = QueryAnswer::Sssp(vec![0.0, 1.6, f32::INFINITY]);
        assert!(check(&bad, &want).is_err());
        let reached = QueryAnswer::Sssp(vec![0.0, 1.5, 9.0]);
        assert!(check(&reached, &want).is_err());
        let nan = QueryAnswer::Sssp(vec![0.0, f32::NAN, f32::INFINITY]);
        assert!(check(&nan, &want).is_err());
    }

    #[test]
    fn pagerank_tolerance_and_kind_mismatch() {
        let want = QueryAnswer::PageRank(vec![0.25, 0.75]);
        assert_eq!(
            check(&QueryAnswer::PageRank(vec![0.250_001, 0.75]), &want),
            Ok(())
        );
        assert!(check(&QueryAnswer::PageRank(vec![0.26, 0.75]), &want).is_err());
        assert!(check(&QueryAnswer::Sssp(vec![0.25, 0.75]), &want).is_err());
    }
}
