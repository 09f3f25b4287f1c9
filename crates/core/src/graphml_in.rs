//! GraphML import — closing the loop with external topologies.
//!
//! §8's future work maps "real networks to parameters `k_i`" (the [ABC
//! module](crate::abc) implements the estimation); this module supplies
//! its input: a reader for GraphML topologies, the format of the Internet
//! Topology Zoo and of this crate's own [`crate::export::to_graphml`].
//!
//! The parser is a deliberately small, dependency-free scanner for the
//! GraphML subset those sources use: one `<graph>`, `<node id="…">` /
//! `<edge source="…" target="…">` elements, optional `<data key="…">`
//! values for node coordinates (`x`/`y`) and population. It is **not** a
//! general XML parser — exotic documents (namespaced prefixes on element
//! names, CDATA, nested graphs) are rejected rather than misread.

use cold_graph::AdjacencyMatrix;
use std::collections::HashMap;

/// An imported topology with whatever annotations the file carried.
#[derive(Debug, Clone)]
pub struct ImportedGraph {
    /// The topology (indices follow first appearance of node ids).
    pub topology: AdjacencyMatrix,
    /// Original node ids, aligned with indices.
    pub node_ids: Vec<String>,
    /// Node coordinates, when every node carried `x` and `y` data.
    pub positions: Option<Vec<cold_context::Point>>,
    /// Node populations, when every node carried `population` data.
    pub populations: Option<Vec<f64>>,
}

/// Import errors (byte-offset diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphMlError {
    /// Approximate byte offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for GraphMlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graphml error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for GraphMlError {}

fn err(offset: usize, message: impl Into<String>) -> GraphMlError {
    GraphMlError { offset, message: message.into() }
}

/// Extracts `name="value"` from an element's attribute text.
fn attr(text: &str, name: &str) -> Option<String> {
    let pat = format!("{name}=\"");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find('"')? + start;
    Some(unescape(&text[start..end]))
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Parses a GraphML document (see module docs for the supported subset).
///
/// # Errors
/// Malformed markup, duplicate node ids, unknown edge endpoints,
/// self-loops, or nested `<graph>` elements.
pub fn parse_graphml(text: &str) -> Result<ImportedGraph, GraphMlError> {
    if text.matches("<graph ").count() + text.matches("<graph>").count() > 1 {
        return Err(err(0, "multiple <graph> elements are not supported"));
    }
    let mut node_ids: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut node_data: Vec<HashMap<String, f64>> = Vec::new();

    let mut cursor = 0usize;
    let bytes = text;
    while let Some(open_rel) = bytes[cursor..].find('<') {
        let open = cursor + open_rel;
        let close = bytes[open..]
            .find('>')
            .map(|c| open + c)
            .ok_or_else(|| err(open, "unterminated tag"))?;
        let tag = &bytes[open + 1..close];
        cursor = close + 1;
        if let Some(rest) = tag.strip_prefix("node") {
            if !rest.starts_with([' ', '\t', '\n']) && !rest.is_empty() {
                continue; // e.g. <nodefoo>, not ours
            }
            let id = attr(tag, "id").ok_or_else(|| err(open, "<node> missing id"))?;
            if index.contains_key(&id) {
                return Err(err(open, format!("duplicate node id `{id}`")));
            }
            index.insert(id.clone(), node_ids.len());
            node_ids.push(id);
            let mut data = HashMap::new();
            // If not self-closing, scan <data> children up to </node>.
            if !tag.ends_with('/') {
                let end = bytes[cursor..]
                    .find("</node>")
                    .map(|e| cursor + e)
                    .ok_or_else(|| err(open, "unterminated <node>"))?;
                let body = &bytes[cursor..end];
                let mut dcur = 0usize;
                while let Some(drel) = body[dcur..].find("<data") {
                    let dopen = dcur + drel;
                    let dtag_end = body[dopen..]
                        .find('>')
                        .map(|c| dopen + c)
                        .ok_or_else(|| err(open, "unterminated <data>"))?;
                    let key = attr(&body[dopen..dtag_end], "key")
                        .ok_or_else(|| err(open, "<data> missing key"))?;
                    let vend = body[dtag_end..]
                        .find("</data>")
                        .map(|e| dtag_end + e)
                        .ok_or_else(|| err(open, "unterminated <data> value"))?;
                    let raw = body[dtag_end + 1..vend].trim();
                    if let Ok(v) = raw.parse::<f64>() {
                        // `pop` is the key id our own exporter uses for the
                        // population attribute; normalize it.
                        let key = if key == "pop" { "population".to_string() } else { key };
                        data.insert(key, v);
                    }
                    dcur = vend + 7;
                }
                cursor = end + "</node>".len();
            }
            node_data.push(data);
        } else if let Some(rest) = tag.strip_prefix("edge") {
            if !rest.starts_with([' ', '\t', '\n']) && !rest.is_empty() {
                continue;
            }
            let s = attr(tag, "source").ok_or_else(|| err(open, "<edge> missing source"))?;
            let t = attr(tag, "target").ok_or_else(|| err(open, "<edge> missing target"))?;
            let &si = index
                .get(&s)
                .ok_or_else(|| err(open, format!("edge references unknown node `{s}`")))?;
            let &ti = index
                .get(&t)
                .ok_or_else(|| err(open, format!("edge references unknown node `{t}`")))?;
            if si == ti {
                return Err(err(open, format!("self-loop on `{s}` is not a valid PoP link")));
            }
            edges.push((si, ti));
            // Skip any edge body (we don't need edge data for import).
            if !tag.ends_with('/') {
                if let Some(e) = bytes[cursor..].find("</edge>") {
                    cursor += e + "</edge>".len();
                }
            }
        }
    }
    let n = node_ids.len();
    if n == 0 {
        return Err(err(0, "no <node> elements found"));
    }
    let mut topology = AdjacencyMatrix::empty(n);
    for (u, v) in edges {
        topology.set_edge(u, v, true);
    }
    let positions = if node_data.iter().all(|d| d.contains_key("x") && d.contains_key("y")) {
        Some(node_data.iter().map(|d| cold_context::Point::new(d["x"], d["y"])).collect())
    } else {
        None
    };
    let populations = if node_data.iter().all(|d| d.contains_key("population")) {
        Some(node_data.iter().map(|d| d["population"]).collect())
    } else {
        None
    };
    Ok(ImportedGraph { topology, node_ids, positions, populations })
}

impl ImportedGraph {
    /// Builds a synthesis [`cold_context::Context`] when the file carried
    /// both coordinates and populations — enabling direct ABC fitting
    /// against the imported network. `None` also when a coordinate is not
    /// finite or a population is not positive and finite.
    pub fn to_context(&self) -> Option<cold_context::Context> {
        let positions = self.positions.clone()?;
        let populations = self.populations.clone()?;
        if !positions.iter().all(|p| p.x.is_finite() && p.y.is_finite())
            || !populations.iter().all(|&p| p > 0.0 && p.is_finite())
        {
            return None;
        }
        let traffic = cold_context::GravityModel::paper_default()
            .traffic_matrix(&populations, Some(&positions));
        Some(cold_context::Context::new(positions, populations, traffic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_graphml;
    use crate::ColdConfig;

    #[test]
    fn round_trips_our_own_exports() {
        let r = ColdConfig::quick(9, 4e-4, 10.0).synthesize(1);
        let xml = to_graphml(&r.network, &r.context);
        let imported = parse_graphml(&xml).expect("own output parses");
        assert_eq!(imported.topology, r.network.topology);
        assert_eq!(imported.node_ids.len(), 9);
        let pos = imported.positions.as_ref().expect("exported files carry x/y");
        for (a, b) in pos.iter().zip(&r.context.positions) {
            assert!((a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
        }
        let pops = imported.populations.as_ref().expect("exported files carry population");
        for (a, b) in pops.iter().zip(&r.context.populations) {
            assert!((a - b).abs() < 1e-9);
        }
        // And the context rebuilds for ABC use.
        let ctx = imported.to_context().unwrap();
        assert_eq!(ctx.n(), 9);
    }

    #[test]
    fn parses_minimal_zoo_style_document() {
        let xml = r#"<?xml version="1.0"?>
<graphml><graph edgedefault="undirected">
  <node id="Adelaide"/>
  <node id="Sydney"/>
  <node id="Perth"/>
  <edge source="Adelaide" target="Sydney"/>
  <edge source="Adelaide" target="Perth"/>
</graph></graphml>"#;
        let g = parse_graphml(xml).unwrap();
        assert_eq!(g.node_ids, vec!["Adelaide", "Sydney", "Perth"]);
        assert_eq!(g.topology.edge_count(), 2);
        assert!(g.topology.has_edge(0, 1));
        assert!(g.topology.has_edge(0, 2));
        assert!(g.positions.is_none());
        assert!(g.to_context().is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_graphml("<graphml></graphml>").is_err(), "no nodes");
        let dup = r#"<graph><node id="a"/><node id="a"/></graph>"#;
        assert!(parse_graphml(dup).unwrap_err().message.contains("duplicate"));
        let dangling = r#"<graph><node id="a"/><edge source="a" target="zz"/></graph>"#;
        assert!(parse_graphml(dangling).unwrap_err().message.contains("unknown node"));
        let selfloop = r#"<graph><node id="a"/><edge source="a" target="a"/></graph>"#;
        assert!(parse_graphml(selfloop).unwrap_err().message.contains("self-loop"));
        let nested = r#"<graph><graph></graph></graph>"#;
        assert!(parse_graphml(nested).unwrap_err().message.contains("multiple"));
    }

    #[test]
    fn entity_escapes_in_ids() {
        let xml = r#"<graph><node id="AT&amp;T"/><node id="B"/>
<edge source="AT&amp;T" target="B"/></graph>"#;
        let g = parse_graphml(xml).unwrap();
        assert_eq!(g.node_ids[0], "AT&T");
        assert_eq!(g.topology.edge_count(), 1);
    }

    #[test]
    fn abc_can_fit_an_imported_network() {
        // End-to-end §8 workflow: export → import → summary → ABC.
        let r = ColdConfig::quick(10, 1e-4, 100.0).synthesize(3);
        let xml = to_graphml(&r.network, &r.context);
        let imported = parse_graphml(&xml).unwrap();
        let stats = crate::NetworkStats::from_matrix(&imported.topology).unwrap();
        let target = crate::abc::TargetSummary::from_stats(&stats);
        let cfg = ColdConfig::quick(10, 1e-4, 10.0);
        let abc_cfg =
            crate::abc::AbcConfig { candidates: 6, trials_per_candidate: 1, ..Default::default() };
        let posterior = crate::abc::fit(&cfg, &target, &abc_cfg, 4);
        assert!(!posterior.is_empty());
        assert!(posterior[0].distance.is_finite());
    }
}
