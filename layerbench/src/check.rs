//! Output checks computed apart from the program: the benchmark keeps its
//! own mirror of every edge set, built from the operations it fed in, and
//! tests each reported coloring against it.

use crate::Inject;
use std::collections::BTreeSet;

/// An edge set as the benchmark mirrors it: normalized `(u, v)` with
/// `u < v`, iterated in lexicographic order.
pub type Mirror = BTreeSet<(usize, usize)>;

fn normalized(u: usize, v: usize) -> (usize, usize) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Applies one trace operation to a mirror. Only the edge operations the
/// generated workloads emit change a mirror; the workloads contain no
/// renumbering operations.
pub fn apply(mirror: &mut Mirror, op: deco_graph::trace::TraceOp) {
    use deco_graph::trace::TraceOp;
    match op {
        TraceOp::Insert(u, v) => {
            mirror.insert(normalized(u, v));
        }
        TraceOp::Delete(u, v) => {
            mirror.remove(&normalized(u, v));
        }
        TraceOp::AddVertices(_) | TraceOp::SetIdent(..) | TraceOp::Commit => {}
        TraceOp::Shrink => panic!("the benchmark's traces contain no shrink operations"),
    }
}

/// Maximum degree of a mirrored edge set.
pub fn max_degree(mirror: &Mirror) -> u64 {
    let n = mirror.iter().map(|&(_, v)| v + 1).max().unwrap_or(0);
    let mut deg = vec![0u64; n];
    for &(u, v) in mirror {
        deg[u] += 1;
        deg[v] += 1;
    }
    deg.into_iter().max().unwrap_or(0)
}

/// The greedy repair palette bound `2Δ - 1` of a mirrored edge set.
pub fn repair_bound(mirror: &Mirror) -> u64 {
    (2 * max_degree(mirror)).max(2) - 1
}

/// Number of distinct colors in a coloring.
pub fn distinct(colors: &[u64]) -> usize {
    colors.iter().collect::<BTreeSet<_>>().len()
}

/// Checks one reported output: `edges` is the program's edge set in
/// lexicographic order and `colors[i]` the color of `edges[i]`. Passes
/// when the edge set equals the mirror, every edge has exactly one color,
/// every color lies below `bound`, and no two edges sharing a vertex share
/// a color. `inject` corrupts the output first, to show the check fails.
pub fn check(
    mirror: &Mirror,
    edges: &[(usize, usize)],
    colors: &[u64],
    bound: u64,
    inject: Option<Inject>,
) -> Result<(), String> {
    let mut edges = edges.to_vec();
    let mut colors = colors.to_vec();
    match inject {
        Some(Inject::DropEdge) if !edges.is_empty() => {
            edges.remove(0);
            colors.remove(0);
        }
        Some(Inject::CorruptColor) => corrupt_color(&edges, &mut colors),
        _ => {}
    }
    if edges.len() != mirror.len() {
        return Err(format!(
            "the program reports {} edges, the mirror holds {}",
            edges.len(),
            mirror.len()
        ));
    }
    if let Some((got, want)) = edges.iter().zip(mirror).find(|(a, b)| a != b) {
        return Err(format!("the program reports edge {got:?} where the mirror holds {want:?}"));
    }
    if colors.len() != edges.len() {
        return Err(format!("{} colors for {} edges", colors.len(), edges.len()));
    }
    if let Some((e, &c)) = colors.iter().enumerate().find(|&(_, &c)| c >= bound) {
        return Err(format!("edge {:?} has color {c}, outside the palette 0..{bound}", edges[e]));
    }
    // One bitset of `bound` bits per vertex: a color seen twice at a
    // vertex is a conflict.
    let words = (bound as usize).div_ceil(64).max(1);
    let n = edges.iter().map(|&(_, v)| v + 1).max().unwrap_or(0);
    let mut seen = vec![0u64; n * words];
    for (&(u, v), &c) in edges.iter().zip(&colors) {
        let (word, bit) = (c as usize / 64, 1u64 << (c % 64));
        for x in [u, v] {
            let slot = &mut seen[x * words + word];
            if *slot & bit != 0 {
                return Err(format!("two edges at vertex {x} share color {c}"));
            }
            *slot |= bit;
        }
    }
    Ok(())
}

/// Gives the second edge at the first vertex of degree two the color of
/// the first.
fn corrupt_color(edges: &[(usize, usize)], colors: &mut [u64]) {
    let mut first_at: std::collections::BTreeMap<usize, usize> = Default::default();
    for (e, &(u, v)) in edges.iter().enumerate() {
        for x in [u, v] {
            if let Some(&f) = first_at.get(&x) {
                colors[e] = colors[f];
                return;
            }
            first_at.insert(x, e);
        }
    }
}
